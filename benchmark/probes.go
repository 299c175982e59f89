package main

import (
	"errors"
	"fmt"

	"obladi/internal/cryptoutil"
	"obladi/internal/mvtso"
	"obladi/internal/oramexec"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// Probes time the layers the driver cannot enter from outside core. Each is
// a short deterministic loop over the layer's public API at the workload's
// parameters and key stream; the reported value is the quiet quantile of the
// per-iteration times. They locate a change; they gate nothing.

const (
	probeEpochs       = 96
	probeWarmupEpochs = 8
	cryptoProbeRounds = 64
	cryptoProbeSlots  = 1024
)

type probeResult struct {
	planUs       float64 // ringoram: planning one read batch
	readBatchUs  float64 // oramexec: plan + execute one read batch
	writeBatchUs float64 // oramexec: plan + execute one write batch
	flushUs      float64 // oramexec: flushing one epoch's write-back set
	walAppendUs  float64 // wal: sealing and appending one batch record
	sealNs       float64 // cryptoutil: sealing one slot
	openNs       float64 // cryptoutil: opening one slot
	mvtsoNs      float64 // mvtso: one transaction's begin/read/write/commit and its share of finalize
}

func runProbes(w *workload, seed uint64) (probeResult, error) {
	var r probeResult
	if err := probeExecutor(w, seed, &r); err != nil {
		return r, fmt.Errorf("executor probe: %w", err)
	}
	if err := probeCrypto(w, seed, &r); err != nil {
		return r, fmt.Errorf("crypto probe: %w", err)
	}
	if err := probeMVTSO(w, seed, &r); err != nil {
		return r, fmt.Errorf("mvtso probe: %w", err)
	}
	return r, nil
}

// probeExecutor runs one shard's executor, recovery log included, through
// steady-state epochs of the workload's schedule on a mem store.
func probeExecutor(w *workload, seed uint64, r *probeResult) error {
	params := w.oramParams(seed)
	if err := params.Validate(); err != nil {
		return err
	}
	store := storage.NewMemBackend(params.Geometry().NumBuckets)
	defer store.Close()
	key := cryptoutil.KeyFromSeed([]byte("obladi-benchmark-probe"))
	oram, err := oramexec.InitORAM(store, key, params)
	if err != nil {
		return err
	}
	exec := oramexec.New(oram, store, oramexec.Config{})
	logStore := storage.NewMemBackend(1)
	defer logStore.Close()
	rlog, err := wal.New(logStore, wal.Config{Key: key})
	if err != nil {
		return err
	}
	nkeys := w.keys / w.shards
	names := make([]string, nkeys)
	for i := range names {
		names[i] = w.keyName(i)
	}
	template := w.valueTemplate()
	epoch := uint64(1)
	exec.BeginEpoch(epoch)
	endEpoch := func() (flushNs int64, err error) {
		t := nanotime()
		if _, err := exec.Flush(); err != nil {
			return 0, err
		}
		flushNs = nanotime() - t
		if err := store.CommitEpoch(epoch); err != nil {
			return 0, err
		}
		epoch++
		exec.BeginEpoch(epoch)
		return flushNs, nil
	}
	writeBatch := func(ops []oramexec.WriteOp) error {
		plan, err := exec.PlanWriteBatch(ops)
		if err != nil {
			return err
		}
		_, err = exec.Execute(plan)
		return err
	}
	// Preload so steady-state reads decode real target slots.
	wops := make([]oramexec.WriteOp, w.writeBatchSize)
	for start := 0; start < nkeys; start += len(wops) {
		clear(wops) // a short last batch is padded
		for i := 0; i < len(wops) && start+i < nkeys; i++ {
			wops[i] = oramexec.WriteOp{Key: names[start+i], Value: encodeValue(template, 0)}
		}
		if err := writeBatch(wops); err != nil {
			return err
		}
		if _, err := endEpoch(); err != nil {
			return err
		}
	}

	gen := newGenerator(w, seed)
	rops := make([]oramexec.ReadOp, w.readBatchSize)
	seen := make(map[int]bool, w.readBatchSize)
	cursor := 0
	var planUs, readUs, writeUs, flushUs, walUs []float64
	for e := 0; e < probeWarmupEpochs+probeEpochs; e++ {
		measured := e >= probeWarmupEpochs
		for b := 0; b < w.readBatches; b++ {
			// One batch of distinct keys from the workload's read stream.
			clear(seen)
			for i := range rops {
				k := -1
				for k < 0 || seen[k] {
					spec := gen.next()
					k = int(spec.reads[0]) % nkeys
				}
				seen[k] = true
				rops[i].Key = names[k]
			}
			t0 := nanotime()
			plan, err := exec.PlanReadBatch(rops)
			if err != nil {
				return err
			}
			t1 := nanotime()
			if err := rlog.AppendBatch(epoch, b, plan.Log()); err != nil {
				return err
			}
			t2 := nanotime()
			if _, err := exec.Execute(plan); err != nil {
				return err
			}
			t3 := nanotime()
			if measured {
				planUs = append(planUs, float64(t1-t0)/1e3)
				walUs = append(walUs, float64(t2-t1)/1e3)
				readUs = append(readUs, float64(t1-t0+t3-t2)/1e3)
			}
		}
		for i := range wops {
			wops[i] = oramexec.WriteOp{Key: names[cursor], Value: encodeValue(template, int64(e))}
			cursor = (cursor + 1) % nkeys
		}
		t0 := nanotime()
		if err := writeBatch(wops); err != nil {
			return err
		}
		t1 := nanotime()
		flushNs, err := endEpoch()
		if err != nil {
			return err
		}
		if measured {
			writeUs = append(writeUs, float64(t1-t0)/1e3)
			flushUs = append(flushUs, float64(flushNs)/1e3)
		}
	}
	r.planUs = quantile(planUs, quietQuantile)
	r.readBatchUs = quantile(readUs, quietQuantile)
	r.writeBatchUs = quantile(writeUs, quietQuantile)
	r.flushUs = quantile(flushUs, quietQuantile)
	r.walAppendUs = quantile(walUs, quietQuantile)
	return nil
}

// probeCrypto seals and opens slots of the workload's physical slot size.
func probeCrypto(w *workload, seed uint64, r *probeResult) error {
	key := cryptoutil.KeyFromSeed([]byte("obladi-benchmark-probe"))
	plain := make([]byte, 1+2+keySize+4+w.valSize) // ringoram's slot plaintext layout
	for i := range plain {
		plain[i] = byte(uint64(i) * (seed + 1))
	}
	sealed := make([]byte, 0, key.SealedSize(len(plain)))
	opened := make([]byte, 0, len(plain))
	var binding []byte
	var sealNs, openNs []float64
	for round := 0; round < cryptoProbeRounds; round++ {
		t0 := nanotime()
		var err error
		for i := 0; i < cryptoProbeSlots; i++ {
			binding = cryptoutil.AppendBinding(binding[:0], uint64(i), uint64(round), 0)
			if sealed, err = key.SealTo(sealed[:0], plain, binding); err != nil {
				return err
			}
		}
		t1 := nanotime()
		for i := 0; i < cryptoProbeSlots; i++ {
			if opened, err = key.OpenTo(opened[:0], sealed, binding); err != nil {
				return err
			}
		}
		t2 := nanotime()
		sealNs = append(sealNs, float64(t1-t0)/cryptoProbeSlots)
		openNs = append(openNs, float64(t2-t1)/cryptoProbeSlots)
	}
	r.sealNs = quantile(sealNs, quietQuantile)
	r.openNs = quantile(openNs, quietQuantile)
	return nil
}

// probeMVTSO replays the workload's transaction stream against a bare
// concurrency-control unit: begin everything, install bases, then read,
// write and request commit in timestamp order, and finalize the epoch.
func probeMVTSO(w *workload, seed uint64, r *probeResult) error {
	gen := newGenerator(w, seed)
	names := make([]string, w.keys)
	for i := range names {
		names[i] = w.keyName(i)
	}
	value := w.valueTemplate()
	m := mvtso.NewManager()
	m.SetWriteBudget(w.shards, w.writeBatchSize, func(key string) int { return shardOf(key, w.shards) })
	specs := make([]txnSpec, w.txnsPerEpoch)
	txns := make([]*mvtso.Txn, w.txnsPerEpoch)
	var perTxn []float64
	for e := 0; e < probeWarmupEpochs+4*probeEpochs; e++ {
		for i := range specs {
			specs[i] = gen.next()
		}
		t0 := nanotime()
		for i := range specs {
			txns[i] = m.Begin()
		}
		for i := range specs {
			for k := 0; k < int(specs[i].nread); k++ {
				m.InstallBase(names[specs[i].reads[k]], value, true)
			}
		}
		for i, t := range txns {
			var vals [3]int64
			// Conflicts, cascades and a full write batch are part of the
			// replay: an aborted transaction simply stops.
			aborted := false
			for k := 0; k < int(specs[i].nread) && !aborted; k++ {
				_, _, err := t.Read(names[specs[i].reads[k]])
				if errors.Is(err, mvtso.ErrNeedFetch) {
					return err
				}
				aborted = err != nil
			}
			ws, _, total := specs[i].writes(&vals, int64(i))
			for k := 0; k < total && !aborted; k++ {
				aborted = t.Write(names[ws[k].key], value) != nil
			}
			if !aborted {
				_ = t.Commit() // fails only if a dependency aborted it meanwhile
			}
		}
		m.FinalizeEpoch()
		if e >= probeWarmupEpochs {
			perTxn = append(perTxn, float64(nanotime()-t0)/float64(len(specs)))
		}
	}
	r.mvtsoNs = quantile(perTxn, quietQuantile)
	return nil
}
