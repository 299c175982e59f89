package storage

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
)

// This file adds whole-store snapshot persistence to MemBackend, so a
// standalone obladi-storage server can survive restarts (the cloud side is
// the durable entity in Obladi's model). The format is a single gob stream.
//
// Durability contract: SaveTo is crash-atomic and durable on return. The
// snapshot is written to a temp file which is fsynced *before* the rename
// (rename-without-fsync is the classic crash-consistency bug: metadata
// journaling can commit the rename while the data blocks are still in the
// page cache, leaving a zero-length "snapshot" after power loss), and the
// parent directory is fsynced *after* the rename so the new name itself
// survives. A crash at any point leaves either the complete old snapshot or
// the complete new one. Note the contract covers SaveTo/LoadMemBackend
// pairs only — MemBackend loses everything between snapshots; DiskBackend
// is the incremental, always-durable alternative.

// memSnapshot is the serializable image of a MemBackend.
type memSnapshot struct {
	Buckets   [][]snapVersion
	Committed uint64
	KV        map[string][]byte
	Log       [][]byte
	LogBase   uint64
}

type snapVersion struct {
	Epoch uint64
	Slots [][]byte
}

// SaveTo writes the backend's full state to path atomically.
func (m *MemBackend) SaveTo(path string) error {
	m.mu.RLock()
	snap := memSnapshot{
		Buckets:   make([][]snapVersion, len(m.buckets)),
		Committed: m.committed,
		KV:        make(map[string][]byte, len(m.kv)),
		Log:       append([][]byte(nil), m.log...),
		LogBase:   m.logBase,
	}
	for i, vs := range m.buckets {
		out := make([]snapVersion, len(vs))
		for j, v := range vs {
			// A copy: once the lock is released a retired version's slab may
			// be reused under the encoder.
			out[j] = snapVersion{Epoch: v.epoch, Slots: v.layout.split(bytes.Clone(v.data), 0)}
		}
		snap.Buckets[i] = out
	}
	for k, v := range m.kv {
		snap.KV[k] = v
	}
	m.mu.RUnlock()

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: creating snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: encoding snapshot: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// LoadMemBackend restores a backend saved with SaveTo.
func LoadMemBackend(path string) (*MemBackend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: opening snapshot: %w", err)
	}
	defer f.Close()
	var snap memSnapshot
	if err := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("storage: decoding snapshot: %w", err)
	}
	m := NewMemBackend(len(snap.Buckets))
	m.committed = snap.Committed
	m.kv = snap.KV
	if m.kv == nil {
		m.kv = make(map[string][]byte)
	}
	m.log = snap.Log
	if snap.LogBase > 0 {
		m.logBase = snap.LogBase
	}
	for i, vs := range snap.Buckets {
		out := make([]bucketVersion, len(vs))
		for j, v := range vs {
			l := layoutOf(v.Slots)
			out[j] = bucketVersion{epoch: v.Epoch, data: m.slabs.copySlots(v.Slots, l), layout: l}
		}
		m.buckets[i] = out
	}
	m.multi = multiVersioned(m.buckets)
	return m, nil
}
