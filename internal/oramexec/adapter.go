package oramexec

import (
	"fmt"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// initChunk is how many buckets of the fresh tree one WriteBuckets call
// carries. The tree crosses the storage boundary as ⌈NumBuckets/initChunk⌉
// vectors in ascending bucket order, and at most one chunk's bucket buffers
// are out at a time.
const initChunk = 64

// InitORAM creates a fresh Ring ORAM client, initializes the tree on the
// backend as epoch 0 with every bucket whole (Z+S slots), and commits it. An
// executor of any configuration can drive the tree; InitORAMFor writes the
// tree the configuration itself writes.
func InitORAM(store storage.BucketStore, key *cryptoutil.Key, p ringoram.Params) (*ringoram.ORAM, error) {
	return initORAM(store, key, p, false)
}

// InitORAMFor is InitORAM for the executor configuration that will drive the
// tree: the buckets such an executor keeps resident are written as their Z
// real positions from the first write on, as it writes them later, so no
// whole-bucket version of them is ever stored (write-through keeps every
// bucket whole). This is the starting state of every Obladi deployment.
func InitORAMFor(store storage.BucketStore, key *cryptoutil.Key, p ringoram.Params, cfg Config) (*ringoram.ORAM, error) {
	return initORAM(store, key, p, !cfg.WriteThrough)
}

// initORAM writes a fresh tree in three steps: RollbackTo(0), the buckets in
// ascending order, initChunk to a WriteBuckets call, and CommitEpoch(0). With
// local set it turns the machine's local-version table on first, so the resident
// buckets are written as the table's executor writes them.
func initORAM(store storage.BucketStore, key *cryptoutil.Key, p ringoram.Params, local bool) (*ringoram.ORAM, error) {
	o, err := ringoram.New(key, p)
	if err != nil {
		return nil, err
	}
	if local {
		o.Machine().KeepLocal()
	}
	n := p.Geometry().NumBuckets
	if have, err := store.NumBuckets(); err != nil {
		return nil, err
	} else if have < n {
		return nil, fmt.Errorf("oramexec: backend has %d buckets, geometry needs %d", have, n)
	}
	// Reinitializing wipes: discard any shadow versions a previous (e.g.
	// non-durable or torn-first-boot) deployment left behind, so the fresh
	// epoch-0 tree starts an ordered version history.
	if err := store.RollbackTo(0); err != nil {
		return nil, err
	}
	var arena ringoram.SealArena
	writes := make([]storage.BucketWrite, 0, initChunk)
	for from := 0; from < n; from += initChunk {
		writes = writes[:0]
		for b := from; b < min(from+initChunk, n); b++ {
			slots, err := o.SealFresh(b, &arena)
			if err != nil {
				return nil, err
			}
			writes = append(writes, storage.BucketWrite{Bucket: b, Epoch: 0, Slots: slots})
		}
		err := store.WriteBuckets(writes)
		arena.Reset() // the store copied what it keeps
		if err != nil {
			return nil, fmt.Errorf("oramexec: initializing buckets %d..%d: %w", from, from+len(writes)-1, err)
		}
	}
	if err := store.CommitEpoch(0); err != nil {
		return nil, err
	}
	return o, nil
}
