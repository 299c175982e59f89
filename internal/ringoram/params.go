// Package ringoram implements Ring ORAM (Ren et al., USENIX Security 2015)
// with the Obladi modifications of §6.3 of the paper: dummiless writes and
// stash-cacheability tagging.
//
// It is the block plane under the public machine in package meta, which alone
// decides the storage trace: the metadata, every plan, the schedule, replay
// and both recovery-log formats. An ORAM holds the block bytes the machine
// moves — the slot codec, sealing and opening, the pooled plaintext of every
// block (blocks.go) and the images of the bucket versions the proxy keeps
// (local.go) — and is the machine's meta.Plane. A driver (the sequential
// client in this package, or the parallel epoch executor in internal/oramexec)
// plans a whole logical operation on the machine without touching storage,
// performs the I/O, and completes each step on the machine, in plan order,
// with the ORAM as the plane. This split is what lets Obladi pipeline an
// epoch's physical reads, defer all physical writes to the epoch boundary,
// and replay logged slot choices deterministically after a crash.
package ringoram

import "obladi/internal/ringoram/meta"

// Params configures a Ring ORAM instance (see meta.Params).
type Params = meta.Params
