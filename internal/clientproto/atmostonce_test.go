package clientproto

// Wire-level at-most-once contract tests. A scripted server controls exactly
// when the connection dies relative to the COMMIT frame, which is the whole
// contract: a loss before the commit point is a retryable abort (nothing of
// the session can commit), a loss after the COMMIT frame is on the wire is
// ErrCommitUnknown (the server may have committed; replaying could
// double-apply).

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"obladi/internal/kvtxn"
)

// scriptedMux accepts one mux connection, strips the magic, and hands the
// framed stream to script; the connection closes when script returns.
func scriptedMux(t *testing.T, script func(c net.Conn, r *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		magic := make([]byte, len(muxMagic))
		if _, err := io.ReadFull(c, magic); err != nil {
			return
		}
		script(c, bufio.NewReaderSize(c, 1<<16))
	}()
	return ln.Addr().String()
}

// ackFrames replies frameOK to the next n frames.
func ackFrames(t *testing.T, c net.Conn, r *bufio.Reader, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, err := recvFrame(r)
		if err != nil {
			t.Errorf("scripted server: frame %d: %v", i, err)
			return
		}
		if _, err := c.Write(appendFrame(nil, frame{kind: frameOK, session: f.session, req: f.req})); err != nil {
			t.Errorf("scripted server: ack %d: %v", i, err)
			return
		}
	}
}

func waitLost(t *testing.T, mc *MuxClient) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !mc.Lost() {
		if time.Now().After(deadline) {
			t.Fatal("client never observed the connection loss")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAtMostOncePreCommitLossIsRetryable: the connection dies before the
// COMMIT frame exists, so every surfaced error must be a retryable abort
// (wrapping both ErrConnLost and kvtxn.ErrAborted, never ErrCommitUnknown).
func TestAtMostOncePreCommitLossIsRetryable(t *testing.T) {
	addr := scriptedMux(t, func(c net.Conn, r *bufio.Reader) {
		ackFrames(t, c, r, 2) // begin, write
		_, _ = recvFrame(r)   // the read arrives...
		// ...and the server dies without replying.
	})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	tx := mc.Begin()
	if err := tx.WriteAsync("k", []byte("v")).Wait(nil); err != nil {
		t.Fatalf("write ack: %v", err)
	}
	_, _, err = tx.Read("k")
	if !errors.Is(err, ErrConnLost) || !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("read on dying conn: got %v, want ErrConnLost+ErrAborted", err)
	}
	if errors.Is(err, ErrCommitUnknown) {
		t.Fatalf("pre-commit loss misclassified as commit-unknown: %v", err)
	}
	// Once the loss is known, a Commit attempt never puts a COMMIT frame on
	// the wire, so it too must stay retryable.
	waitLost(t, mc)
	err = tx.Commit()
	if !errors.Is(err, ErrConnLost) || !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("commit on known-dead conn: got %v, want ErrConnLost+ErrAborted", err)
	}
	if errors.Is(err, ErrCommitUnknown) {
		t.Fatalf("unsent COMMIT misclassified as commit-unknown: %v", err)
	}
	// A fresh transaction on the dead client is likewise retryably dead
	// (a failover-aware caller redials and replays).
	tx2 := mc.Begin()
	if err := tx2.Commit(); !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("fresh txn on dead conn: got %v, want retryable abort", err)
	}
}

// TestAtMostOnceLossAfterCommitSentIsUnknown: the server receives the COMMIT
// frame and dies before answering. The client cannot know the outcome, so
// the error must be ErrCommitUnknown and must NOT be retryable.
func TestAtMostOnceLossAfterCommitSentIsUnknown(t *testing.T) {
	addr := scriptedMux(t, func(c net.Conn, r *bufio.Reader) {
		ackFrames(t, c, r, 2) // begin, write
		_, _ = recvFrame(r)   // COMMIT received; die without a decision
	})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	tx := mc.Begin()
	if err := tx.WriteAsync("k", []byte("v")).Wait(nil); err != nil {
		t.Fatalf("write ack: %v", err)
	}
	err = tx.Commit()
	if !errors.Is(err, ErrCommitUnknown) {
		t.Fatalf("commit with lost decision: got %v, want ErrCommitUnknown", err)
	}
	if errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("lost decision classified retryable (would double-apply): %v", err)
	}
}

// TestAtMostOnceServerAbortStaysRetryable: an abort decision that ARRIVED is
// authoritative — it stays a retryable kvtxn.ErrAborted even though the
// connection dies immediately after.
func TestAtMostOnceServerAbortStaysRetryable(t *testing.T) {
	addr := scriptedMux(t, func(c net.Conn, r *bufio.Reader) {
		ackFrames(t, c, r, 2) // begin, write
		f, err := recvFrame(r)
		if err != nil {
			t.Errorf("scripted server: commit frame: %v", err)
			return
		}
		payload := encodeErrPayload(errCodeAborted, "epoch aborted the transaction")
		if _, err := c.Write(appendFrame(nil, frame{kind: frameErr, session: f.session, req: f.req, payload: payload})); err != nil {
			t.Errorf("scripted server: abort reply: %v", err)
		}
		// Connection closes right behind the decision.
	})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	tx := mc.Begin()
	if err := tx.WriteAsync("k", []byte("v")).Wait(nil); err != nil {
		t.Fatalf("write ack: %v", err)
	}
	err = tx.Commit()
	if !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("server-reported abort: got %v, want kvtxn.ErrAborted", err)
	}
	if errors.Is(err, ErrCommitUnknown) {
		t.Fatalf("received decision misclassified as unknown: %v", err)
	}
}
