package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// SharedLog multiplexes several shards' recovery-log streams onto ONE
// physical segmented log (the owner backend's). This is what makes group
// commit actually coalesce across shards: with per-shard log files, two
// shards' epoch-boundary appends land on different files and their fsyncs
// can never merge — the scheduler only amortizes barriers on the same file.
// With every stream in one file, a read round's two schedule appends, the
// commit round's two checkpoints and whatever else is in flight all stand on
// one flush wave.
//
// Sharing one file also strengthens the sharded commit protocol for free:
// the fsync of the coordinator's committing checkpoint covers every other
// shard's prepared one (they sit earlier in the same file), so the global
// commit point's single flush is exactly the durability the protocol's
// recovery floor assumes.
//
// Stream records are the owner's physical records with a 4-byte stream-id
// prefix. Each stream presents the LogStore contract with its own dense
// sequence numbers. Sequence numbers restart from the surviving record
// count at reopen; that is sound because the WAL layer persists no sequence
// numbers across restarts — every recovery derives state from a fresh
// Scan(0), and checkpoints identify epochs, not sequences.
//
// A torn physical tail truncates a suffix of the physical log, which is a
// suffix of every stream in append order — each stream recovers to a prefix,
// exactly the write-ahead contract, and the cross-shard recovery floor logic
// raises lagging shards afterwards.
type SharedLog struct {
	owner *DiskBackend

	mu      sync.Mutex
	streams []logStream
	// heapStreams counts bucket-data streams (logheap mode); they occupy
	// stream ids len(streams)..len(streams)+heapStreams-1. Heap streams have
	// no logical sequence mapping — the logheap index addresses records by
	// physical location, its checkpoint watermark bounds replay, and the
	// segment retention gate (not Truncate) governs their lifetime.
	heapStreams int
}

type logStream struct {
	phys  []uint64 // physical seq of each live record; logical seq = floor+i
	floor uint64   // logical seq of phys[0] (1 when nothing truncated)
	last  uint64   // last logical seq handed out
}

const sharedLogHdrSize = 4

// NewSharedLog builds the multiplexer over owner's physical log, which must
// only ever be written through the returned views (raw appends would be
// unparseable stream records). Existing physical records are demuxed to
// rebuild each stream's state — including after a crash, where the owner's
// own open already handled torn tails and damaged segments.
func NewSharedLog(owner *DiskBackend, streams int) (*SharedLog, error) {
	return newSharedLogOpts(owner, streams, 0, sharedLogReplay{})
}

// sharedLogReplay feeds bucket-data records to the logheap rebuild during
// the open-time demux scan. heapFloor(i) is heap stream i's checkpoint
// watermark W: own-stream records with physical sequence <= W are already
// reflected in the loaded checkpoint and are skipped; onHeap receives every
// record above it, with its physical location (the body slice is only valid
// for the duration of the call).
type sharedLogReplay struct {
	heapFloor func(i int) uint64
	onHeap    func(i int, seq, segBase uint64, off int64, body []byte) error
}

// newSharedLogOpts builds the multiplexer over walStreams WAL streams plus
// heapStreams bucket-data streams. The demux scan starts at the lowest
// sequence any consumer still needs — the WAL truncation point, or a heap
// stream's checkpoint watermark, whichever is lower (the retention gate
// keeps those segments on disk) — and WAL streams simply skip the
// logically-truncated records below the truncation point.
func newSharedLogOpts(owner *DiskBackend, walStreams, heapStreams int, rp sharedLogReplay) (*SharedLog, error) {
	if walStreams <= 0 {
		return nil, fmt.Errorf("storage: shared log needs a positive stream count (got %d)", walStreams)
	}
	s := &SharedLog{owner: owner, streams: make([]logStream, walStreams), heapStreams: heapStreams}
	for i := range s.streams {
		s.streams[i].floor = 1
	}
	trunc := owner.truncFloor()
	from := trunc
	for i := 0; i < heapStreams; i++ {
		if w := rp.heapFloor(i) + 1; w < from {
			from = w
		}
	}
	total := walStreams + heapStreams
	err := owner.scanLog(from, func(seq, segBase uint64, off int64, rec []byte) error {
		id, body, err := splitSharedRecord(rec)
		if err != nil {
			return fmt.Errorf("storage: shared log physical record %d: %w", seq, err)
		}
		if int(id) >= total {
			return fmt.Errorf("storage: shared log record for stream %d but only %d streams opened", id, total)
		}
		if int(id) < walStreams {
			if seq < trunc {
				return nil // logically truncated; retained only for heap data
			}
			st := &s.streams[id]
			st.phys = append(st.phys, seq)
			st.last++
			return nil
		}
		h := int(id) - walStreams
		if seq <= rp.heapFloor(h) {
			return nil // already covered by the index checkpoint
		}
		return rp.onHeap(h, seq, segBase, off, body)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// appendHeapFrame appends one bucket-data record to heap stream i without
// standing on a barrier, returning where it landed; the caller owns
// durability (notePending now, SyncLog at the commit barrier). The caller
// laid the record out as a whole frame in its own buffer — beginRecord,
// sharedLogHdrSize bytes for the stream header, the body — freshly built or
// read back and edited (segment GC's copy): the stream id and frame header
// are filled in there and frame goes to the log head as it is, not retained.
// Called with the owning LogHeap's mutex held — lock order is heap mu → s.mu
// → the owner's logMu.
func (s *SharedLog) appendHeapFrame(i int, frame []byte) (logAppendRes, error) {
	if i < 0 || i >= s.heapStreams {
		return logAppendRes{}, fmt.Errorf("storage: shared log heap stream %d of %d", i, s.heapStreams)
	}
	if len(frame) < recordFrameSize+sharedLogHdrSize {
		return logAppendRes{}, fmt.Errorf("storage: %d byte frame shorter than its stream header", len(frame))
	}
	binary.BigEndian.PutUint32(frame[recordFrameSize:], uint32(len(s.streams)+i))
	sealRecord(frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.owner.appendLogFramed(frame)
}

func splitSharedRecord(rec []byte) (uint32, []byte, error) {
	if len(rec) < sharedLogHdrSize {
		return 0, nil, fmt.Errorf("record shorter than its stream header (%d bytes)", len(rec))
	}
	return binary.BigEndian.Uint32(rec), rec[sharedLogHdrSize:], nil
}

// View returns stream i's LogStore face.
func (s *SharedLog) View(i int) *LogView {
	if i < 0 || i >= len(s.streams) {
		panic(fmt.Sprintf("storage: shared log stream %d of %d", i, len(s.streams)))
	}
	return &LogView{log: s, id: uint32(i)}
}

// LogView is one stream's LogStore over the shared physical log.
type LogView struct {
	log *SharedLog
	id  uint32
}

// appendUnsynced writes the record into the shared physical log and extends
// the stream's mapping under one lock (stream order == physical order, the
// invariant torn-tail recovery leans on); durability is the caller's.
func (v *LogView) appendUnsynced(record []byte) (seq uint64, res logAppendRes, err error) {
	s := v.log
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, err = s.owner.appendLogRecord(int(v.id), record); err != nil {
		return 0, res, err
	}
	st := &s.streams[v.id]
	st.phys = append(st.phys, res.seq)
	st.last++
	return st.last, res, nil
}

// Append writes the record and blocks on a flush wave of the physical log's
// active segment. The barrier runs outside the lock — that is the whole
// point: every stream's barrier lands on the same file and coalesces.
func (v *LogView) Append(record []byte) (uint64, error) {
	seq, res, err := v.appendUnsynced(record)
	if err != nil {
		return 0, err
	}
	if err := v.log.owner.barrierTicket(res.f, res.ticket); err != nil {
		return 0, v.log.owner.wedge(err)
	}
	return seq, nil
}

// AppendNoSync implements LogBatcher: the record lands in the shared
// physical log but its durability waits for a SyncLog — from ANY view.
// This is the cross-shard barrier-placement primitive: N shards append
// their records back to back, then the first SyncLog's single fsync makes
// all of them durable and the remaining N-1 calls return without touching
// the disk.
func (v *LogView) AppendNoSync(record []byte) (uint64, error) {
	seq, res, err := v.appendUnsynced(record)
	if err != nil {
		return 0, err
	}
	// The pending-barrier ledger is the owner's: it is per physical log
	// (which is exactly the coalescing domain) and it already forgets
	// obligations on retired segment files.
	v.log.owner.notePending(res.f, res.ticket)
	return seq, nil
}

// SyncLog implements LogBatcher: every deferred append across ALL streams
// becomes durable — they share one physical file, so one barrier covers
// them and the other views' SyncLog calls become no-ops. Usually one fsync;
// one per file only when deferred appends straddled a segment rotation.
func (v *LogView) SyncLog() error {
	return v.log.owner.SyncLog()
}

// Scan returns this stream's records with sequence >= from, in order,
// demuxed from one physical scan.
func (v *LogView) Scan(from uint64) ([][]byte, error) {
	s := v.log
	s.mu.Lock()
	defer s.mu.Unlock()
	// Checked here and not only by the owner's Scan: the empty-stream early
	// return below must still report a closed store.
	if err := s.owner.checkUsable(); err != nil {
		return nil, err
	}
	st := &s.streams[v.id]
	if from < st.floor {
		from = st.floor
	}
	if from > st.last {
		return nil, nil
	}
	firstPhys := st.phys[from-st.floor]
	recs, err := s.owner.Scan(firstPhys)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, st.last-from+1)
	for _, rec := range recs {
		id, body, err := splitSharedRecord(rec)
		if err != nil {
			return nil, err
		}
		if id == v.id {
			out = append(out, body)
		}
	}
	return out, nil
}

// Truncate logically drops this stream's records below before, then
// truncates the physical log to the floor no remaining stream record sits
// under. One stream truncating never strands another: the physical floor is
// the minimum over every stream's first retained record.
func (v *LogView) Truncate(before uint64) error {
	s := v.log
	s.mu.Lock()
	defer s.mu.Unlock()
	// Same reasoning as Scan: the no-op path must still see ErrClosed.
	if err := s.owner.checkUsable(); err != nil {
		return err
	}
	st := &s.streams[v.id]
	if before > st.last+1 {
		before = st.last + 1
	}
	if before <= st.floor {
		return nil
	}
	st.phys = st.phys[before-st.floor:]
	st.floor = before
	physFloor, err := s.owner.LastSeq()
	if err != nil {
		return err
	}
	physFloor++ // nothing retained: everything below the next append may go
	for i := range s.streams {
		if p := s.streams[i].phys; len(p) > 0 && p[0] < physFloor {
			physFloor = p[0]
		}
	}
	return s.owner.Truncate(physFloor)
}

// LastSeq reports the stream's last assigned sequence number.
func (v *LogView) LastSeq() (uint64, error) {
	s := v.log
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.owner.checkUsable(); err != nil {
		return 0, err
	}
	return s.streams[v.id].last, nil
}
