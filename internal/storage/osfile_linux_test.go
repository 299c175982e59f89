//go:build linux

package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestReopenedTailKeepsItsReservation opens a one-shard group on the real
// file system, writes into its tail segment, closes it with a torn record
// past its last one, and reopens it. The open cuts the torn bytes and
// reserves the tail up to segMaxBytes again, as a new segment is: appends
// after a restart then change no allocation metadata. Past the valid prefix
// the reopened tail holds nothing but zeros, so the torn bytes never decode
// again, and a record appended after the reopen survives the next one.
func TestReopenedTailKeepsItsReservation(t *testing.T) {
	const segMax = 1 << 20
	dir := t.TempDir()
	probe, err := osFS{}.OpenFile(filepath.Join(dir, "probe"), os.O_RDWR|os.O_CREATE, 0o644)
	must(t, err)
	err = probe.(osFile).Preallocate(0, segMax)
	probe.Close()
	if err != nil {
		t.Skipf("fallocate unsupported here: %v", err)
	}
	opts := diskOpts{workers: 1, segMaxBytes: segMax}
	g, err := openDiskGroupOpts(osFS{}, dir, 1, 4, opts)
	must(t, err)
	must(t, g.shards[0].WriteBucket(1, 1, slots("before the restart")))
	must(t, g.shards[0].CommitEpoch(1))
	tail := filepath.Join(dir, "shard-000", g.log.segs[0].name)
	end := g.log.segs[0].size
	must(t, g.Close())
	f, err := os.OpenFile(tail, os.O_RDWR, 0)
	must(t, err)
	_, err = f.WriteAt(encodeRecord(nil, []byte("torn"))[:10], end)
	must(t, err)
	must(t, f.Close())

	allocated := func() int64 {
		t.Helper()
		var st syscall.Stat_t
		must(t, syscall.Stat(tail, &st))
		return st.Blocks * 512
	}
	g, err = openDiskGroupOpts(osFS{}, dir, 1, 4, opts)
	must(t, err)
	if n := allocated(); n < segMax {
		t.Fatalf("reopened tail has %d bytes allocated, want its reservation of %d", n, segMax)
	}
	data, err := os.ReadFile(tail)
	must(t, err)
	if rest := data[end:]; len(rest) < 10 || !bytes.Equal(rest, make([]byte, len(rest))) {
		t.Fatalf("the reopened tail holds %d bytes past its last record, not all zero", len(rest))
	}
	must(t, g.shards[0].WriteBucket(2, 2, slots("after the restart")))
	must(t, g.shards[0].CommitEpoch(2))
	must(t, g.Close())

	g, err = openDiskGroupOpts(osFS{}, dir, 1, 4, opts)
	must(t, err)
	defer g.Close()
	for b, want := range map[int]string{1: "before the restart", 2: "after the restart"} {
		got, err := g.shards[0].ReadSlot(b, 0)
		must(t, err)
		if string(got) != want {
			t.Fatalf("bucket %d reads %q, want %q", b, got, want)
		}
	}
	if c := g.shards[0].CommittedEpoch(); c != 2 {
		t.Fatalf("committed epoch %d after two restarts, want 2", c)
	}
}
