// Package ringoram implements Ring ORAM (Ren et al., USENIX Security 2015)
// with the Obladi modifications of §6.3 of the paper: dummiless writes and
// stash-cacheability tagging.
//
// It is the block plane under the public machine in package meta, which alone
// decides the storage trace: the metadata, every plan, the schedule, replay
// and both recovery-log formats. An ORAM holds the block bytes the machine
// moves — the slot codec, sealing and opening, the pooled plaintext of every
// block (blocks.go) and the images of the bucket versions the proxy keeps
// (local.go) — and is the machine's meta.Plane, given to the machine once,
// when New or Restore makes both. The sequential client in this package
// (Seq) and the parallel epoch executor in internal/oramexec share one
// protocol and one store interface (storage.BucketStore) and differ only in
// how they schedule I/O: each plans a whole logical operation on the
// machine without touching storage (PlanRead, or PlanWrite, which
// stores the written value in the ORAM), performs the I/O, and completes
// each step in plan order (Complete). This split is what lets Obladi
// pipeline an epoch's physical reads, defer all physical writes to the epoch
// boundary, and replay logged slot choices deterministically after a crash.
package ringoram

import "obladi/internal/ringoram/meta"

// Params configures a Ring ORAM instance (see meta.Params).
type Params = meta.Params
