// Command obladi-storage runs the untrusted cloud storage server: an ORAM
// bucket tree with shadow paging and the recovery log, served over TCP.
//
// The server stores only ciphertext and padded, encrypted log records; it
// learns nothing about the workload beyond Obladi's fixed batch schedule.
//
// Usage:
//
//	obladi-storage -listen :7000 -buckets 65536 [-latency server-wan]
//	obladi-storage -listen :7000 -buckets 65536 -data-dir /var/lib/obladi
//	obladi-storage -listen :7000 -buckets 65536 -data-dir /var/lib/obladi -shards 2
//
// Without -data-dir the store lives in memory and dies with the process.
// With -data-dir the server runs the durable store: a logheap disk group of
// -shards shards (default 1) under that directory, which recovers to the
// last committed epoch after a crash or SIGKILL. Every shard's bucket
// versions, epoch commits and recovery-log stream ride one shared physical
// log, so an epoch commit across all shards is one deferred record per shard
// plus a single fsync. A directory written in another layout (a lone
// single-directory store, or a group with one heap file per shard) is
// refused at open, naming its layout.
//
// With one shard the server listens on -listen. With -shards N > 1 shard i
// is served on the base port + i (or on its own ephemeral port when the base
// port is 0); each shard prints its address.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"obladi/internal/pprofserve"
	"obladi/internal/storage"
)

func main() {
	listen := flag.String("listen", ":7000", "address to listen on")
	buckets := flag.Int("buckets", 1<<16, "number of ORAM buckets to provision (must cover the proxy's tree)")
	latency := flag.String("latency", "", "inject a latency profile for experiments: server | server-wan | dynamo")
	scale := flag.Float64("latency-scale", 1.0, "scale factor applied to the injected latency profile")
	dataDir := flag.String("data-dir", "", "directory for the durable store (a logheap disk group; crash-atomic, recovers on restart)")
	shards := flag.Int("shards", 1, "shards of the durable store (requires -data-dir); shard i listens on the base port + i")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables profiling)")
	flag.Parse()

	if addr, err := pprofserve.Start(*pprofAddr); err != nil {
		log.Fatalf("pprof listen: %v", err)
	} else if addr != "" {
		fmt.Printf("obladi-storage: pprof on http://%s/debug/pprof/\n", addr)
	}
	if *shards < 1 {
		log.Fatalf("-shards must be at least 1 (got %d)", *shards)
	}
	var backends []storage.Backend
	if *dataDir == "" {
		if *shards > 1 {
			log.Fatal("-shards needs -data-dir (the shards are a disk group)")
		}
		backends = []storage.Backend{storage.NewMemBackend(*buckets)}
	} else {
		g, err := storage.OpenDiskGroupOpts(*dataDir, *shards, *buckets, storage.DiskOptions{LogHeap: true})
		if err != nil {
			log.Fatalf("opening data dir %s: %v", *dataDir, err)
		}
		defer g.Close()
		// All client traffic goes through the group's views — raw shard
		// access would bypass the shared physical log.
		backends = g.Backends()
		fmt.Printf("obladi-storage: durable store in %s, %d shard(s) (committed epochs:", *dataDir, *shards)
		for _, be := range backends {
			fmt.Printf(" %d", be.(interface{ CommittedEpoch() uint64 }).CommittedEpoch())
		}
		fmt.Println(")")
	}

	servers := make([]*storage.Server, 0, len(backends))
	for i, be := range backends {
		addr := *listen
		if len(backends) > 1 {
			addr = shardAddr(*listen, i)
		}
		srv, err := storage.NewServer(wrapLatency(be, *latency, *scale), addr)
		if err != nil {
			log.Fatalf("starting storage server: %v", err)
		}
		servers = append(servers, srv)
		if len(backends) > 1 {
			fmt.Printf("obladi-storage: shard %d serving %d buckets on %s\n", i, *buckets, srv.Addr())
		} else {
			fmt.Printf("obladi-storage: serving %d buckets on %s\n", *buckets, srv.Addr())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if <-sig == syscall.SIGTERM {
		// Graceful drain: stop accepting and give in-flight proxy requests
		// (an epoch boundary's flush, a WAL barrier) a grace window to
		// finish, so a rolling restart doesn't tear a boundary mid-commit.
		fmt.Println("obladi-storage: SIGTERM, draining")
		var wg sync.WaitGroup
		for _, srv := range servers {
			wg.Add(1)
			go func(srv *storage.Server) {
				defer wg.Done()
				if err := srv.Drain(5 * time.Second); err != nil {
					log.Print(err)
				}
			}(srv)
		}
		wg.Wait()
		return
	}
	fmt.Println("obladi-storage: shutting down")
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			log.Print(err)
		}
	}
}

// shardAddr is shard i's listen address: the base port + i, or an ephemeral
// port when the base port is 0.
func shardAddr(listen string, i int) string {
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		log.Fatalf("parsing -listen %q: %v", listen, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("-listen %q needs a numeric port with -shards (shard i is served on port+i): %v", listen, err)
	}
	if port != 0 {
		port += i
	}
	return net.JoinHostPort(host, strconv.Itoa(port))
}

// wrapLatency injects the requested latency profile (empty = none).
func wrapLatency(b storage.Backend, latency string, scale float64) storage.Backend {
	switch latency {
	case "":
		return b
	case "server":
		return storage.WithLatency(b, storage.ProfileServer.Scaled(scale))
	case "server-wan":
		return storage.WithLatency(b, storage.ProfileServerWAN.Scaled(scale))
	case "dynamo":
		return storage.WithLatency(b, storage.ProfileDynamo.Scaled(scale))
	default:
		log.Fatalf("unknown latency profile %q", latency)
		return nil
	}
}
