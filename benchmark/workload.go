package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// This file freezes the load: the four workloads' parameters and the
// generators that turn a seed into a transaction stream. Nothing here imports
// the repository's own workload packages, so a change to them cannot change
// what the benchmark offers. The golden-hash test pins the streams.

type storeKind uint8

const (
	storeMem    storeKind = iota // storage.MemBackend in process
	storeDisk                    // storage.DiskGroup, logheap layout, under the data dir
	storeRemote                  // storage.Dial -> in-process storage.Server over MemBackend
)

type mixKind uint8

const (
	mixUniformBlind mixKind = iota // 2 uniform reads + 1 blind write to a distinct key
	mixZipfRMW                     // 2 zipfian reads, read-modify-write
	mixSmallBank                   // SmallBank's six transaction types
)

// workload is one frozen parameter set. R, bread and bwrite are per shard.
type workload struct {
	name string
	why  string

	shards  int
	store   storeKind
	wire    bool // drive through clientproto instead of calling core directly
	mix     mixKind
	keys    int // logical keys in the store
	valSize int

	readBatches    int // R
	readBatchSize  int // bread
	writeBatchSize int // bwrite
	txnsPerEpoch   int

	// blocksPerSecond converts -seconds into a fixed amount of work: the
	// timed pass runs seconds*blocksPerSecond blocks of blockEpochs epochs,
	// so counts repeat exactly for a given command line. The rates were
	// tuned once on the reference host so a pass lasts about -seconds.
	blocksPerSecond float64
}

const (
	blockEpochs  = 32 // epochs per timing block: two full-checkpoint cadences
	warmupEpochs = 128
	maxAttempts  = 10
	keySize      = 16
	// rmwGroup is how many first-attempt transactions resolve their reads
	// together before any of them issues its read-dependent write. Within a
	// group a lower timestamp's write can meet a higher timestamp's read
	// marker (conflict abort); across groups later readers see earlier
	// writers' uncommitted versions (dependencies, hence cascading aborts).
	// A retried transaction runs alone, after every group, so it can lose
	// only to a cascade and none starves.
	rmwGroup = 4
	// lateWriteEvery makes every n-th read-modify-write transaction update
	// its second key too, after every group has run: a write that can fail
	// after others have read the transaction's first write.
	lateWriteEvery = 8
)

var workloads = []workload{
	{
		name:   "kv-mem",
		why:    "CPU-bound: every read and write slot real on a mem store, so mvtso, core, oramexec, ringoram, cryptoutil and wal encoding do all the work",
		shards: 1, store: storeMem, mix: mixUniformBlind, keys: 16384, valSize: 256,
		readBatches: 4, readBatchSize: 32, writeBatchSize: 64, txnsPerEpoch: 64,
		blocksPerSecond: 4,
	},
	{
		name:   "kv-contend",
		why:    "same store and schedule under zipfian read-modify-write: conflict and cascading aborts, retries, batch de-duplication, padded slots",
		shards: 1, store: storeMem, mix: mixZipfRMW, keys: 16384, valSize: 256,
		readBatches: 4, readBatchSize: 32, writeBatchSize: 64, txnsPerEpoch: 56,
		blocksPerSecond: 4.25,
	},
	{
		name:   "bank-disk",
		why:    "SmallBank on 2 shards over the durable logheap disk group: storage, group commit, wal and the cross-shard commit dominate",
		shards: 2, store: storeDisk, mix: mixSmallBank, keys: 10000, valSize: 64,
		readBatches: 4, readBatchSize: 32, writeBatchSize: 64, txnsPerEpoch: 48,
		blocksPerSecond: 2.5,
	},
	{
		name:   "kv-wire",
		why:    "kv-mem's transactions through both wires (mux client protocol and remote storage): framing, syscalls and wake-ups dominate",
		shards: 1, store: storeRemote, wire: true, mix: mixUniformBlind, keys: 16384, valSize: 256,
		readBatches: 4, readBatchSize: 16, writeBatchSize: 32, txnsPerEpoch: 32,
		blocksPerSecond: 3.5,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// blind reports whether transactions issue their write before their reads
// resolve (the write does not depend on what was read).
func (w *workload) blind() bool { return w.mix == mixUniformBlind }

// keyName formats the i-th logical key. SmallBank interleaves an account's
// checking (even) and savings (odd) rows.
func (w *workload) keyName(i int) string {
	if w.mix == mixSmallBank {
		if i%2 == 0 {
			return fmt.Sprintf("c%08d", i/2)
		}
		return fmt.Sprintf("s%08d", i/2)
	}
	return fmt.Sprintf("k%08d", i)
}

// initialValue is what preload stores under every key.
func (w *workload) initialValue() int64 {
	if w.mix == mixSmallBank {
		return 10000
	}
	return 0
}

// Transaction kinds. The SmallBank kinds keep that benchmark's order.
const (
	kindBlind uint8 = iota
	kindRMW
	kindRMWLate
	kindBalance
	kindDepositChecking
	kindTransactSavings
	kindAmalgamate
	kindWriteCheck
	kindSendPayment
)

// txnSpec is one generated transaction: up to three independent reads and
// the inputs its writes are computed from.
type txnSpec struct {
	kind   uint8
	nread  uint8
	reads  [3]int32
	wkey   int32 // kindBlind's write target
	amount int64
}

// kvWrite is one write a transaction performs.
type kvWrite struct {
	key int32
	val int64
}

// writes computes the transaction's writes from the values it read. The
// first `early` are issued as soon as the reads resolve (or at begin, for
// blind writes); the rest are late writes. id is the transaction's sequence
// number, the value a blind write stores.
func (s *txnSpec) writes(vals *[3]int64, id int64) (w [3]kvWrite, early, total int) {
	switch s.kind {
	case kindBlind:
		w[0] = kvWrite{s.wkey, id}
		return w, 1, 1
	case kindRMW:
		w[0] = kvWrite{s.reads[0], vals[0] + 1}
		return w, 1, 1
	case kindRMWLate:
		w[0] = kvWrite{s.reads[0], vals[0] + 1}
		w[1] = kvWrite{s.reads[1], vals[1] + 1}
		return w, 1, 2
	case kindBalance:
		return w, 0, 0
	case kindDepositChecking, kindTransactSavings:
		w[0] = kvWrite{s.reads[0], vals[0] + s.amount}
		return w, 1, 1
	case kindAmalgamate:
		// reads: checking(from), savings(from), checking(to); two reads
		// when an account is amalgamated into itself
		if s.nread == 2 {
			w[0] = kvWrite{s.reads[1], 0}
			w[1] = kvWrite{s.reads[0], vals[0] + vals[1]}
			return w, 2, 2
		}
		w[0] = kvWrite{s.reads[0], 0}
		w[1] = kvWrite{s.reads[1], 0}
		w[2] = kvWrite{s.reads[2], vals[2] + vals[0] + vals[1]}
		return w, 3, 3
	case kindWriteCheck:
		// reads: checking, savings
		amount := s.amount
		if vals[0]+vals[1] < amount {
			amount++ // overdraft penalty
		}
		w[0] = kvWrite{s.reads[0], vals[0] - amount}
		return w, 1, 1
	case kindSendPayment:
		// reads: checking(from), checking(to), distinct accounts
		w[0] = kvWrite{s.reads[0], vals[0] - s.amount}
		w[1] = kvWrite{s.reads[1], vals[1] + s.amount}
		return w, 2, 2
	}
	panic(fmt.Sprintf("benchmark: unknown transaction kind %d", s.kind))
}

// generator turns a seed into a transaction stream.
type generator struct {
	w      *workload
	rng    *rand.Rand
	zipf   *zipfian
	cursor int // next blind-write key
	seq    int // transactions generated
}

func newGenerator(w *workload, seed uint64) *generator {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	g := &generator{w: w, rng: rand.New(rand.NewPCG(seed, h.Sum64()))}
	if w.mix == mixZipfRMW {
		g.zipf = newZipfian(w.keys, 0.99)
	}
	return g
}

func (g *generator) next() txnSpec {
	g.seq++
	switch g.w.mix {
	case mixUniformBlind:
		s := txnSpec{kind: kindBlind, nread: 2}
		s.reads[0] = int32(g.rng.IntN(g.w.keys))
		s.reads[1] = int32(g.rng.IntN(g.w.keys))
		// Distinct write keys within an epoch: no write-write conflicts.
		s.wkey = int32(g.cursor)
		g.cursor = (g.cursor + 1) % g.w.keys
		return s
	case mixZipfRMW:
		s := txnSpec{kind: kindRMW, nread: 2}
		s.reads[0] = int32(g.zipf.next(g.rng))
		s.reads[1] = s.reads[0]
		if g.seq%lateWriteEvery == 0 {
			// The late write goes to a key from the cold half of the zipfian
			// range: it seldom fails, but when it does the transaction's hot
			// first write has usually been read, and the readers cascade. (A
			// hot late key would fail every attempt and starve.)
			s.kind = kindRMWLate
			for s.reads[1] == s.reads[0] {
				s.reads[1] = int32(g.w.keys/2 + g.rng.IntN(g.w.keys/2))
			}
			return s
		}
		for s.reads[1] == s.reads[0] {
			s.reads[1] = int32(g.zipf.next(g.rng))
		}
		return s
	default:
		return g.nextSmallBank()
	}
}

// account draws a SmallBank account: a quarter of accesses go to the
// hottest 4% of accounts.
func (g *generator) account() int32 {
	accounts := g.w.keys / 2
	if g.rng.IntN(100) < 25 {
		return int32(g.rng.IntN(accounts / 25))
	}
	return int32(g.rng.IntN(accounts))
}

func (g *generator) nextSmallBank() txnSpec {
	checking := func(a int32) int32 { return 2 * a }
	savings := func(a int32) int32 { return 2*a + 1 }
	switch g.rng.IntN(6) {
	case 0:
		a := g.account()
		return txnSpec{kind: kindBalance, nread: 2, reads: [3]int32{checking(a), savings(a)}}
	case 1:
		a := g.account()
		return txnSpec{kind: kindDepositChecking, nread: 1, reads: [3]int32{checking(a)}, amount: int64(1 + g.rng.IntN(100))}
	case 2:
		a := g.account()
		return txnSpec{kind: kindTransactSavings, nread: 1, reads: [3]int32{savings(a)}, amount: int64(1 + g.rng.IntN(100))}
	case 3:
		from, to := g.account(), g.account()
		if from == to {
			return txnSpec{kind: kindAmalgamate, nread: 2, reads: [3]int32{checking(from), savings(from)}}
		}
		return txnSpec{kind: kindAmalgamate, nread: 3, reads: [3]int32{checking(from), savings(from), checking(to)}}
	case 4:
		a := g.account()
		return txnSpec{kind: kindWriteCheck, nread: 2, reads: [3]int32{checking(a), savings(a)}, amount: int64(1 + g.rng.IntN(100))}
	default:
		from, to := g.account(), g.account()
		amount := int64(1 + g.rng.IntN(50))
		if from == to {
			// A payment to oneself degenerates to a zero deposit.
			return txnSpec{kind: kindDepositChecking, nread: 1, reads: [3]int32{checking(from)}}
		}
		return txnSpec{kind: kindSendPayment, nread: 2, reads: [3]int32{checking(from), checking(to)}, amount: amount}
	}
}

// appendTo serializes the spec for the golden-hash test.
func (s *txnSpec) appendTo(b []byte) []byte {
	b = append(b, s.kind, s.nread)
	for _, r := range s.reads {
		b = binary.BigEndian.AppendUint32(b, uint32(r))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(s.wkey))
	return binary.BigEndian.AppendUint64(b, uint64(s.amount))
}

// zipfian draws from [0, n) with the Gray et al. algorithm YCSB uses; item 0
// is the hottest.
type zipfian struct {
	n                  int
	theta, alpha       float64
	zetan, eta, thresh float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipfian{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.thresh = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.thresh {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// shardOf is a frozen copy of core's FNV-1a key routing, used only to size
// preload batches so no shard's write batch overflows. If core's routing
// ever changes the preload fails loudly rather than measuring wrongly.
func shardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Values are a big-endian int64 followed by a fixed filler up to the
// workload's value size.

func (w *workload) valueTemplate() []byte {
	t := make([]byte, w.valSize)
	for i := range t {
		t[i] = byte(i*7 + 3)
	}
	return t
}

// encodeValue allocates a fresh value: the engine retains the slice.
func encodeValue(template []byte, v int64) []byte {
	b := make([]byte, len(template))
	copy(b, template)
	binary.BigEndian.PutUint64(b, uint64(v))
	return b
}
