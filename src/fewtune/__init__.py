"""Cross-domain few-shot fine-tuning with pseudo query sets, a
prototypical triplet loss, and a large-margin cosine classifier head."""
