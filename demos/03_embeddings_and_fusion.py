"""From tokens to one fused vector: embedding, self-attention, cross-attention, pooling.

Run from the repository root:  python3 demos/03_embeddings_and_fusion.py
"""

import dataclasses

import numpy as np

from secpatch import (EmbedderBackend, Modality, default_hyperparams, embed_patch, embed_text,
                      fuse_forward, init_pt_former, instruction_text, tokenize)

hp = dataclasses.replace(default_hyperparams(), dim=16, num_heads=4, dropout=0.0)
backend = EmbedderBackend.hashed_projection(hp.dim, seed=1)

diff = "@@ -1,1 +1,2 @@\n-strcpy(buf, s);\n+strncpy(buf, s, sizeof(buf));\n+buf[15] = 0;\n"
# every text goes through the one hashed tokenizer, cut to the first max_tokens ids
e_pa = embed_patch(tokenize(diff, hp.max_tokens), backend)
e_ex = embed_text(tokenize("bounds the copy to the buffer size", hp.max_tokens), backend,
                  Modality.EXPLANATION)
e_desc = embed_text(tokenize("fix overflow", hp.max_tokens), backend, Modality.DESCRIPTION)
e_inst = embed_text(tokenize(instruction_text(), hp.max_tokens), backend, Modality.INSTRUCTION)
print("modality matrix shapes:",
      {m.modality.value: m.values.shape for m in (e_pa, e_ex, e_desc, e_inst)})

# the embedders tag each matrix with its modality; fusion takes the plain (rows, dim) arrays
pa, ex, desc, inst = (m.values for m in (e_pa, e_ex, e_desc, e_inst))
state = init_pt_former(hp, rng_seed=0)

# the forward pass training and scoring run; without dropout masks it is evaluation mode
fused, cache = fuse_forward(pa, ex, desc, inst, state)
print(f"fused vector length = 3 * dim = {fused.shape[0]}")

# the attention weights come from the pass's cache: the self-attention over the
# explanation (one row-normalized matrix per head) and the cross-attention weights A
updated, weights = cache["ca"][1], cache["sa_ex"][4]
print("self-attention keeps the shape:", updated.shape,
      "| every weight row sums to", float(weights.sum(axis=-1).round(12).max()))

ca_weights = cache["ff1"][0]
print("cross-attention weights, patch rows x explanation rows:", ca_weights.shape)
print("strongest explanation token per patch row:", np.argmax(ca_weights, axis=1))
