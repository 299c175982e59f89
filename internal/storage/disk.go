package storage

import (
	"fmt"
	"os"
	"slices"
	"strings"
)

// This file holds a disk group's data-dir layout: the options a group opens
// with, the names of its files, and the checks that refuse a dir an older
// build wrote in a layout no build serves any more. A group keeps every
// shard's bucket versions and recovery-log stream on one physical log
// (diskLog, in shard-000); shard-<i> holds only shard i's index checkpoint
// (LogHeap).

const (
	// heapFileName is the per-shard bucket heap older builds kept; an open
	// only refuses a dir holding one (checkGroupLayout).
	heapFileName = "buckets.heap"
	// kvFileName is the key-value journal older disk stores kept; an open
	// only checks that it holds no records (refuseKVJournal).
	kvFileName   = "kv.log"
	metaFileName = "meta"
	segPrefix    = "wal-"
	segSuffix    = ".seg"
	tmpSuffix    = ".tmp"
)

const defaultSegMaxBytes = 4 << 20

// DiskOptions tunes OpenDiskGroupOpts beyond the defaults.
type DiskOptions struct {
	// LogHeap picks no file layout: every group keeps its buckets on its
	// log, and a dir opens the same way whatever the flag. With it, Backends
	// exposes EpochCommitBatcher, so an epoch's heap commits and its log
	// barrier share one fsync wave — what obladi-storage serves. Without
	// it, Backends returns the bare shards and the proxy commits each shard
	// behind its own CommitEpoch barrier. The field remains because the
	// benchmark module's capability test opens such a group.
	LogHeap bool
}

// diskOpts is the internal option set; crash-harness opens leave
// autoMaintain off (and workers at 1) so the swept op sequence stays
// deterministic, driving Checkpoint and EvacuateSegment explicitly instead.
// segMaxBytes overrides the log segment roll-over size (0 = default) for
// tests that need many segments.
type diskOpts struct {
	DiskOptions
	workers      int
	autoMaintain bool
	segMaxBytes  int64
}

// logHeapMarker marks a data dir as a group in the one layout every build
// writes. A dir with shard directories and no marker is a per-shard-file
// group an older build wrote: its bucket data lies in files this layout
// never reads, so opening it would silently serve an empty store over live
// data.
const logHeapMarker = "logheap"

// checkGroupLayout refuses a data dir an older build wrote in a layout no
// build serves — a single-directory store (one shard's files at the top
// level) or a per-shard-file group — naming the layout and a file of it, and
// marks a fresh dir. A refused dir is left as it is.
func checkGroupLayout(fsys vfs, dir string) error {
	names, err := fsys.List(dir)
	if err != nil {
		return fmt.Errorf("storage: listing group dir: %w", err)
	}
	hasMarker, hasShard := false, false
	for _, n := range names {
		switch {
		case n == logHeapMarker:
			hasMarker = true
		case strings.HasPrefix(n, "shard-"):
			hasShard = true
		case n == metaFileName, n == heapFileName,
			strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix):
			return fmt.Errorf("storage: data dir %s holds a single-directory disk store (%s at its top level); refusing to open it as a group", dir, n)
		}
	}
	switch {
	case hasMarker:
		return nil
	case hasShard:
		return fmt.Errorf("storage: data dir %s holds a per-shard-file group (shard directories, each shard's buckets in its own %s, no %s marker); refusing to open it", dir, heapFileName, logHeapMarker)
	}
	f, err := fsys.OpenFile(joinPath(dir, logHeapMarker), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating group marker: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// prepareShardDir readies one shard directory of a group for its opens: a
// crashed checkpoint or meta update leaves a stray temp file, never renamed
// into place, so it is dead weight; and a kv.log holding records is refused
// (refuseKVJournal).
func prepareShardDir(fsys vfs, dir string) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: creating data dir: %w", err)
	}
	names, err := fsys.List(dir)
	if err != nil {
		return fmt.Errorf("storage: listing data dir: %w", err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) && len(n) > len(tmpSuffix) {
			_ = fsys.Remove(joinPath(dir, n))
		}
	}
	if slices.Contains(names, kvFileName) {
		return refuseKVJournal(fsys, dir)
	}
	return nil
}

// refuseKVJournal fails the open of a directory whose kv.log — the journal
// older disk stores kept a key-value namespace in — holds a record: no disk
// store serves that namespace any more, and opening would hide it. A
// header-only journal, which is all a proxy's data dir ever held, is left
// alone.
func refuseKVJournal(fsys vfs, dir string) error {
	name := joinPath(dir, kvFileName)
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("storage: opening %s: %w", name, err)
	}
	size, err := f.Size()
	f.Close()
	if err != nil {
		return err
	}
	if size > fileHeaderSize {
		return fmt.Errorf("storage: %s holds %d bytes of key-value records: %w", name, size-fileHeaderSize, ErrNoKV)
	}
	return nil
}
