"""From tokens to one fused vector: embedding, self-attention, cross-attention, pooling.

Run from the repository root:  python3 demos/03_embeddings_and_fusion.py
"""

import dataclasses

import numpy as np

from secpatch import (EmbedderBackend, Modality, cross_attention,
                      default_hyperparams, embed_patch, embed_text, fuse_forward,
                      init_pt_former, instruction_text, self_attention, tokenize)

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

updated, weights = self_attention(ex, state.self_attn, return_weights=True)
print("self-attention keeps the shape:", updated.shape,
      "| every weight row sums to", float(weights.sum(axis=-1).round(12).max()))

aligned, ca_weights = cross_attention(pa, updated, state.cross_attn, return_weights=True)
print("cross-attention maps patch rows onto the explanation:", aligned.shape)
print("strongest explanation token per patch row:", np.argmax(ca_weights, axis=1))

# the forward pass training and scoring run; without dropout masks it is evaluation mode
fused, _ = fuse_forward(pa, ex, desc, inst, state)
print(f"fused vector length = 3 * dim = {fused.shape[0]}")
