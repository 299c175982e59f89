// Command obladi-proxy runs the trusted Obladi proxy, connecting on-site
// clients to an (untrusted) obladi-storage server. Clients speak the
// multiplexed protocol of internal/clientproto (clientproto.DialMux): a
// length-prefixed binary framing that carries many concurrent transaction
// sessions per connection and pipelines requests without waiting for
// replies. A connection that does not open with the protocol's magic is
// closed.
//
// Usage:
//
//	obladi-proxy -storage localhost:7000 -listen :7100 -keys 8192 -seed s3cret
//
// Sharded deployment (one obladi-storage server per shard):
//
//	obladi-proxy -shards 4 -storage host0:7000,host1:7000,host2:7000,host3:7000
//
// High availability (a standby with sub-second failover):
//
//	obladi-proxy -storage host:7000 -seed s3cret -replica-listen :7200
//	obladi-proxy -storage host:7000 -seed s3cret -standby-of primary:7200
//
// The standby claims its client port immediately (so clients can list both
// proxies in a static failover address list) and watches the primary's
// heartbeats. When they stop for a lease, it fences the storage servers and
// recovers from the durable log exactly as a restarted proxy would, then
// serves. Client connections made before promotion wait in the accept queue
// and are served once the standby promotes — a client dialing into the
// failover window sees latency, not errors.
//
// SIGTERM drains gracefully: client sessions stop being accepted, the
// current epoch seals and commits, and every accepted transaction resolves
// truthfully before exit. SIGINT (and SIGKILL) keep the abrupt fate-sharing
// path that crash recovery — and failover — are built to absorb.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"obladi"
	"obladi/internal/clientproto"
	"obladi/internal/kvtxn"
	"obladi/internal/pprofserve"
)

func main() {
	storageAddr := flag.String("storage", "localhost:7000", "obladi-storage server address(es); one per shard, comma-separated")
	listen := flag.String("listen", ":7100", "address for client connections")
	shards := flag.Int("shards", 1, "key-space partitions (requires one storage address per shard)")
	keys := flag.Int("keys", 8192, "maximum distinct keys (ORAM capacity, across all shards)")
	valueSize := flag.Int("value-size", 256, "maximum value size in bytes")
	seed := flag.String("seed", "", "key seed (required to recover an existing store)")
	interval := flag.Duration("batch-interval", 5*time.Millisecond, "read batch interval Δ")
	readBatches := flag.Int("read-batches", 4, "read batches per epoch (R)")
	readBatch := flag.Int("read-batch-size", 32, "read batch size (bread)")
	writeBatch := flag.Int("write-batch-size", 32, "write batch size (bwrite)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables profiling)")
	replicaListen := flag.String("replica-listen", "", "fence storage and listen here for a standby, holding its lease with heartbeats")
	standbyOf := flag.String("standby-of", "", "run as standby of the primary whose -replica-listen is this address; promote on lease expiry")
	lease := flag.Duration("lease", 750*time.Millisecond, "standby promotes after this long without a heartbeat from the primary, which heartbeats every lease/8; must match on primary and standby")
	flag.Parse()

	if addr, err := pprofserve.Start(*pprofAddr); err != nil {
		log.Fatalf("pprof listen: %v", err)
	} else if addr != "" {
		fmt.Printf("obladi-proxy: pprof on http://%s/debug/pprof/\n", addr)
	}

	opt := obladi.Options{
		MaxKeys:        *keys,
		Shards:         *shards,
		MaxValueSize:   *valueSize,
		ReadBatches:    *readBatches,
		ReadBatchSize:  *readBatch,
		WriteBatchSize: *writeBatch,
		BatchInterval:  *interval,
		RemoteAddr:     *storageAddr,
		ReplicaListen:  *replicaListen,
		LeaseTimeout:   *lease,
	}
	if *seed != "" {
		opt.KeySeed = []byte(*seed)
	}

	var db *obladi.DB
	var err error
	if *standbyOf != "" {
		if *seed == "" {
			log.Fatalf("-standby-of requires -seed (must match the primary's)")
		}
		// Claim the client port before promotion so clients can hold a
		// static failover address list: connections wait in the accept
		// queue and are served once the standby becomes primary.
		ln, lerr := net.Listen("tcp", *listen)
		if lerr != nil {
			log.Fatalf("listen: %v", lerr)
		}
		fmt.Printf("obladi-proxy: standby of %s, clients=%s (queued until promotion)\n", *standbyOf, ln.Addr())
		db, err = obladi.OpenStandby(context.Background(), *standbyOf, opt)
		if err != nil {
			log.Fatalf("standby: %v", err)
		}
		fmt.Printf("obladi-proxy: promoted to primary (replayed %d logged reads)\n", db.Stats().RecoveryReplayed)
		serve(db, clientproto.NewServerListener(kvtxn.ProxyDB{P: db}, ln), *storageAddr, *interval, *readBatches)
		return
	}

	db, err = obladi.Open(opt)
	if err != nil {
		log.Fatalf("opening store: %v", err)
	}
	if addr := db.ReplicaAddr(); addr != "" {
		fmt.Printf("obladi-proxy: replica=%s (standby lease link)\n", addr)
	}
	srv, err := clientproto.NewServer(kvtxn.ProxyDB{P: db}, *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	serve(db, srv, *storageAddr, *interval, *readBatches)
}

func serve(db *obladi.DB, srv *clientproto.Server, storageAddr string, interval time.Duration, readBatches int) {
	fmt.Printf("obladi-proxy: shards=%d storage=%s clients=%s epoch≈%v\n",
		db.Shards(), storageAddr, srv.Addr(), interval*time.Duration(readBatches))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	if s == syscall.SIGTERM {
		// Graceful drain: stop accepting, let in-flight sessions finish
		// against the sealing epoch, commit it, then exit.
		fmt.Printf("obladi-proxy: SIGTERM, draining\n")
		srv.Close()
		if err := db.Shutdown(); err != nil {
			log.Printf("obladi-proxy: drain: %v", err)
		}
	} else {
		srv.Close()
		db.Close()
	}
	st := db.Stats()
	fmt.Printf("obladi-proxy: %d epochs, %d committed, %d aborted, %d reads shed, %d held over a boundary\n",
		st.Epochs, st.Committed, st.Aborted, st.ShedReads, st.BoundaryReads)
	fmt.Printf("obladi-proxy: storage calls: %d reads, %d writes\n", st.Executor.ReadCalls, st.Executor.WriteCalls)
	for i, l := range st.Logs {
		fmt.Printf("obladi-proxy: shard %d log: %d records from seq %d, %d truncations; checkpoints: last delta %d B, last full %d B, %d B in all\n",
			i, l.Records, l.FloorSeq, l.Truncations, l.LastDeltaBytes, l.LastFullBytes, l.CheckpointBytes)
	}
}
