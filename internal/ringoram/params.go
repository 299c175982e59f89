// Package ringoram implements Ring ORAM (Ren et al., USENIX Security 2015)
// with the Obladi modifications of §6.3 of the paper: dummiless writes and
// stash-cacheability tagging.
//
// It is the block plane on top of the public machine in package meta, which
// alone decides the storage trace: the metadata, every plan, the schedule,
// replay and both recovery-log formats. An ORAM holds the machine and the
// block bytes it moves — the slot codec, sealing and opening, the pooled
// plaintext of every block (blocks.go) and the images of the bucket versions
// the proxy keeps (local.go) — and guards a plan and its completion with one
// lock. PlanRead and PlanWrite plan a whole logical operation, without
// touching storage; callers (the sequential wrapper in this package, and the
// parallel epoch executor in internal/oramexec) perform the I/O and feed each
// step's slots back through Complete, in plan order. This split is what lets
// Obladi pipeline an epoch's physical reads, defer all physical writes to the
// epoch boundary, and replay logged slot choices deterministically after a
// crash.
package ringoram

import "obladi/internal/ringoram/meta"

// Params configures a Ring ORAM instance (see meta.Params).
type Params = meta.Params
