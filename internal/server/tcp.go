package server

// The CWT1 persistent TCP ingest transport (spec: internal/stream/tcpwire.go).
//
// HTTP gives every batch a request/response round trip: per-batch header
// parsing, handler dispatch, and — decisive at service rates — an ack's
// worth of latency serializing each client's next send. CWT1 removes all
// three. A connection is a long-lived stream of sequenced CWB1 frames; the
// server runs two goroutines per connection:
//
//   - The READER loop: scan one frame into the connection's one reused
//     buffer, decode it zero-copy (stream.DecodeWire aliases the buffer),
//     submitAsync it into the same partition→shard-executor pipeline HTTP
//     uses — under the same ingest gate, so rotation/Drain/Close quiesce
//     semantics are identical — and hand the (seq, walSeq) pair to the
//     acker. submitAsync copies and logs the batch before it returns, so
//     the next frame may overwrite the buffer at once. The reader never
//     waits for fsync or absorption, so frames pipeline.
//   - The ACKER loop: for each accepted frame, wal.Commit(walSeq) — the
//     group-committed durability barrier, off the read path — then write the
//     compact 12-byte ack. Ack order is frame order (one FIFO channel), so
//     the client's acked prefix is exact. An acked frame is durable exactly
//     as an acked HTTP batch is: append (and, under "always", fsync) happen
//     before the ack bytes exist.
//
// Backpressure: submitAsync blocks when a shard queue is full, which stalls
// the reader, which stops draining the socket, which fills the client's
// send window — flow control all the way back to the producer, with nothing
// buffered unboundedly in between. The stall counter makes it observable.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// tcpState is the Server's CWT1 listener state: the registry Close tears
// down.
type tcpState struct {
	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup
	active  atomic.Int64
}

// tcpAck is one pending ack, reader → acker, in frame order.
type tcpAck struct {
	seq    uint64
	status uint16
	walSeq uint64 // nonzero: Commit before acking (the durability barrier)
	t0     time.Time
}

// tcpAckQueueDepth bounds reader→acker handoff. When the acker falls behind
// (a slow fsync, a client not draining acks), the reader blocks here — the
// same backpressure-by-stalling-reads discipline as a full shard queue.
const tcpAckQueueDepth = 256

// ServeTCP serves CWT1 ingest on ln until Close. Each accepted connection
// must open with the 4-byte "CWT1" preamble and then carries sequenced
// CWB1 frames; the server acks each frame out-of-band on the same
// connection. Blocks; returns ErrClosed after Close (the clean shutdown),
// or the first Accept error. Multiple listeners may be served concurrently.
func (s *Server) ServeTCP(ln net.Listener) error {
	s.tcp.mu.Lock()
	if s.tcp.closing {
		s.tcp.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	if s.tcp.lns == nil {
		s.tcp.lns = make(map[net.Listener]struct{})
	}
	s.tcp.lns[ln] = struct{}{}
	s.tcp.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.tcp.mu.Lock()
			closing := s.tcp.closing
			delete(s.tcp.lns, ln)
			s.tcp.mu.Unlock()
			if closing {
				return ErrClosed
			}
			return fmt.Errorf("server: tcp accept: %w", err)
		}
		s.tcp.mu.Lock()
		if s.tcp.closing {
			s.tcp.mu.Unlock()
			conn.Close()
			continue // the closed listener ends the loop on the next Accept
		}
		if s.tcp.conns == nil {
			s.tcp.conns = make(map[net.Conn]struct{})
		}
		s.tcp.conns[conn] = struct{}{}
		s.tcp.wg.Add(1)
		s.tcp.mu.Unlock()
		go s.serveTCPConn(conn)
	}
}

// tcpShutdown (from Close) stops the accept loops and half-closes every
// live connection: CloseRead makes each reader see EOF at its next frame
// boundary without cutting the write side, so the acker still delivers the
// acks for every frame already read. Waits for all connection goroutines.
func (s *Server) tcpShutdown() {
	s.tcp.mu.Lock()
	s.tcp.closing = true
	for ln := range s.tcp.lns {
		ln.Close()
	}
	for c := range s.tcp.conns {
		if hc, ok := c.(interface{ CloseRead() error }); ok {
			_ = hc.CloseRead()
		} else {
			_ = c.Close()
		}
	}
	s.tcp.mu.Unlock()
	s.tcp.wg.Wait()
}

// countingReader counts raw socket reads into a metrics counter.
type countingReader struct {
	r io.Reader
	c *metrics.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(uint64(n))
	}
	return n, err
}

// serveTCPConn runs one connection's reader loop (and spawns its acker).
func (s *Server) serveTCPConn(conn net.Conn) {
	s.tcpConnsTotal.Inc()
	s.tcp.active.Add(1)
	defer func() {
		conn.Close()
		s.tcp.mu.Lock()
		delete(s.tcp.conns, conn)
		s.tcp.mu.Unlock()
		s.tcp.active.Add(-1)
		s.tcp.wg.Done()
	}()

	br := bufio.NewReaderSize(&countingReader{r: conn, c: s.tcpBytesRead}, 64<<10)
	var magic [len(stream.TCPMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != stream.TCPMagic {
		return // not a CWT1 client; nothing was acked, so just close
	}

	acks := make(chan tcpAck, tcpAckQueueDepth)
	ackerDone := make(chan struct{})
	go s.tcpAcker(conn, acks, ackerDone)
	// The reader owns the acks channel: closing it (always, on every exit
	// path) tells the acker to flush and quit; waiting on ackerDone keeps
	// the deferred conn.Close from cutting unsent acks.
	defer func() {
		close(acks)
		<-ackerDone
	}()

	sc := stream.NewFrameScanner(br, int(s.cfg.MaxBodyBytes))
	buf := make([]byte, 0, 64<<10)
	for {
		seq, payload, err := sc.Next(buf)
		if err != nil {
			if err != io.EOF {
				// Torn or hostile stream: framing is lost, close without
				// acking the damage (the spec's close-don't-resync rule).
				fmt.Fprintf(os.Stderr, "cardserved: tcp %s: %v\n", conn.RemoteAddr(), err)
			}
			return
		}
		buf = payload[:0] // Next may have grown the buffer; keep the larger one
		t0 := time.Now()
		s.tcpFrames.Inc()

		edges, derr := stream.DecodeWire(payload)
		if derr != nil {
			// The header's CRC and length delimited this frame exactly, so a
			// bad CWB1 payload rejects alone: ack 400, stay in sync.
			acks <- tcpAck{seq: seq, status: stream.AckBad, t0: t0}
			continue
		}
		if len(edges) == 0 {
			// Keep-alive frame: acked, never logged (matches HTTP, where an
			// empty batch writes no WAL record).
			acks <- tcpAck{seq: seq, status: stream.AckOK, t0: t0}
			continue
		}
		// This send is where backpressure bites: a full shard queue blocks
		// it, stalling this reader.
		_, walSeq, serr := s.submitAsync(edges, false, s.tcpStalls)
		if serr != nil {
			if errors.Is(serr, ErrClosed) {
				acks <- tcpAck{seq: seq, status: stream.AckShutdown, t0: t0}
				return
			}
			// WAL append failure: nothing ingested, and the WAL's latched
			// error will refuse every later frame too — same as HTTP's 500.
			acks <- tcpAck{seq: seq, status: stream.AckError, t0: t0}
			continue
		}
		acks <- tcpAck{seq: seq, status: stream.AckOK, walSeq: walSeq, t0: t0}
	}
}

// tcpAcker is a connection's single ack writer: it commits each accepted
// frame's WAL position (the fsync barrier, under the "always" policy) and
// then writes the 12-byte ack, in frame order. Acks are batched into one
// buffered writer and flushed at every lull (empty channel), so a pipelined
// burst costs one syscall's worth of acks, not one per frame. If the client
// stops reading acks, the write eventually blocks, the ack queue fills, and
// the reader stalls — backpressure again, never unbounded buffering.
func (s *Server) tcpAcker(conn net.Conn, acks <-chan tcpAck, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, 8<<10)
	var rec [stream.AckLen]byte
	dead := false
	for a := range acks {
		if dead {
			continue // client unreachable; drain so the reader never blocks
		}
		if a.walSeq != 0 && s.wal != nil {
			if err := s.wal.Commit(a.walSeq); err != nil {
				// Queued and absorbed, but durability unknown: refuse the
				// ack so the client retries (duplicates are tolerated).
				a.status = stream.AckError
			}
		}
		if _, err := bw.Write(stream.AppendAck(rec[:0], a.seq, a.status)); err != nil {
			dead = true
			continue
		}
		s.tcpAckByStatus[a.status].Inc()
		s.tcpAckLatency.Observe(time.Since(a.t0).Seconds())
		if len(acks) == 0 {
			if err := bw.Flush(); err != nil {
				dead = true
			}
		}
	}
	if !dead {
		_ = bw.Flush()
	}
}
