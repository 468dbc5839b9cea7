package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// newHTTPClient returns a client that keeps exactly one keep-alive
// connection to the daemon: each load stream is one connection, as a real
// client's would be.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get performs one GET and returns the body of a 200 response.
func get(c *http.Client, url string, buf *bytes.Buffer) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// post sends body and accepts 200 or 202.
func post(c *http.Client, url, contentType string, body []byte) error {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// estimate reads /estimate for one user. The response has a fixed shape,
// so the number is cut out of it instead of reflecting through a decoder.
func estimate(c *http.Client, base string, user uint64, buf *bytes.Buffer) (float64, error) {
	body, err := get(c, base+"/estimate?user="+strconv.FormatUint(user, 10), buf)
	if err != nil {
		return 0, err
	}
	_, v, ok := bytes.Cut(body, []byte(`"estimate":`))
	if !ok {
		return 0, fmt.Errorf("/estimate: unexpected body %q", body)
	}
	return strconv.ParseFloat(string(bytes.TrimRight(v, "}\n")), 64)
}

type topkEntry struct {
	User     uint64  `json:"user"`
	Estimate float64 `json:"estimate"`
}

// topk reads /topk?k=k and checks the answer's shape: exactly k entries
// (every workload has far more than k users) in non-increasing order.
func topk(c *http.Client, base string, k int, buf *bytes.Buffer) error {
	body, err := get(c, base+"/topk?k="+strconv.Itoa(k), buf)
	if err != nil {
		return err
	}
	var r struct {
		K   int         `json:"k"`
		Top []topkEntry `json:"top"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("/topk: %w", err)
	}
	if len(r.Top) != k {
		return &gateError{fmt.Sprintf("/topk?k=%d returned %d entries", k, len(r.Top))}
	}
	for i := 1; i < len(r.Top); i++ {
		if r.Top[i].Estimate > r.Top[i-1].Estimate {
			return &gateError{fmt.Sprintf("/topk not non-increasing at rank %d: %g after %g",
				i, r.Top[i].Estimate, r.Top[i-1].Estimate)}
		}
	}
	return nil
}

// mergedTotal reads /total?method=merged.
func mergedTotal(c *http.Client, base string) (float64, error) {
	var buf bytes.Buffer
	body, err := get(c, base+"/total?method=merged", &buf)
	if err != nil {
		return 0, err
	}
	var r struct {
		Total  float64 `json:"total"`
		Method string  `json:"method"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("/total: %w", err)
	}
	if r.Method != "merged" {
		return 0, &gateError{fmt.Sprintf("/total?method=merged fell back to %q", r.Method)}
	}
	return r.Total, nil
}

// epoch reads the daemon's current epoch from /healthz.
func epoch(c *http.Client, base string) (int, error) {
	var buf bytes.Buffer
	body, err := get(c, base+"/healthz", &buf)
	if err != nil {
		return 0, err
	}
	var r struct {
		Epoch int `json:"epoch"`
	}
	err = json.Unmarshal(body, &r)
	return r.Epoch, err
}

// gateError is a correctness gate failure: the run completes, reports it,
// and exits nonzero.
type gateError struct{ msg string }

func (e *gateError) Error() string { return e.msg }

// cwt1 is one persistent CWT1 load connection. Frames go out with strictly
// increasing sequence numbers, at most window unacked; a reader goroutine
// consumes the in-order acks, times each frame from its due time to its
// ack, and frees its window slot.
type cwt1 struct {
	conn    net.Conn
	seq     uint64
	from    time.Time // frames due earlier are warm-up; set before the first send
	slots   chan struct{}
	pending chan inflight
	acks    lat // owned by the ack reader until close returns
	edges   int // edges acked in measured frames, likewise
	// progress, when set, also counts edges acked in measured frames, live.
	progress *atomic.Int64
	// probeAcks receives the ack of every probe the connection sends; it
	// must be buffered for all of them.
	probeAcks chan<- probeAck
	tr        *tracer
	done      chan struct{}
	err       error // set by the ack reader before done closes
	buf       []byte
}

type inflight struct {
	seq    uint64
	edges  int
	due    time.Time
	span   int64
	probes []int64 // the probes the frame carries
}

// probeAck reports that the frame carrying probe k was acked at at (ok:
// with status 200).
type probeAck struct {
	k  int64
	at time.Time
	ok bool
}

func dialCWT1(addr string, window int, tr *tracer) (*cwt1, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("CWT1 dial %s: %w", addr, err)
	}
	if _, err := conn.Write([]byte(stream.TCPMagic)); err != nil {
		conn.Close()
		return nil, err
	}
	c := &cwt1{
		conn:    conn,
		slots:   make(chan struct{}, window),
		pending: make(chan inflight, window),
		tr:      tr,
		done:    make(chan struct{}),
	}
	go c.readAcks()
	return c, nil
}

func (c *cwt1) readAcks() {
	defer close(c.done)
	br := bufio.NewReader(c.conn)
	var rec [stream.AckLen]byte
	for f := range c.pending {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			c.err = fmt.Errorf("CWT1 connection lost waiting for ack %d: %w", f.seq, err)
			return
		}
		now := time.Now()
		seq, status, err := stream.ParseAck(rec[:])
		if err == nil && seq != f.seq {
			err = fmt.Errorf("CWT1 ack for frame %d, want %d", seq, f.seq)
		}
		if err != nil {
			c.err = err
			return
		}
		switch {
		case f.due.Before(c.from): // warm-up: sent, not measured
		case status == stream.AckOK:
			c.acks.add(ms(now.Sub(f.due)))
			c.edges += f.edges
			if c.progress != nil {
				c.progress.Add(int64(f.edges))
			}
		default:
			c.acks.fail()
		}
		for _, k := range f.probes {
			c.probeAcks <- probeAck{k: k, at: now, ok: status == stream.AckOK}
		}
		c.tr.end(f.span, now)
		<-c.slots
	}
}

// send writes one frame carrying edges, due at due (the send time in a
// closed loop, the schedule slot in an open one). It blocks while window
// frames are unacked — in an open loop that wait shows up as lag and as
// latency, both measured from due.
func (c *cwt1) send(edges []stream.Edge, due time.Time) error {
	return c.sendProbes(edges, due, nil)
}

// sendProbes is send for a frame that carries probes.
func (c *cwt1) sendProbes(edges []stream.Edge, due time.Time, probes []int64) error {
	select {
	case c.slots <- struct{}{}:
	case <-c.done:
		return c.failure()
	}
	c.seq++
	span := c.tr.begin("frame", 0, due)
	c.buf = stream.AppendFrameHeader(c.buf[:0], c.seq, stream.WireSize(len(edges)))
	c.buf = stream.AppendWire(c.buf, edges)
	c.pending <- inflight{seq: c.seq, edges: len(edges), due: due, span: span, probes: probes}
	w := c.tr.begin("frame.write", span, time.Now())
	_, err := c.conn.Write(c.buf)
	c.tr.end(w, time.Now())
	if err != nil {
		return fmt.Errorf("CWT1 write: %w", err)
	}
	return nil
}

// drain waits until every frame sent so far is acked.
func (c *cwt1) drain() error {
	for i := 0; i < cap(c.slots); i++ {
		select {
		case c.slots <- struct{}{}:
		case <-c.done:
			return c.failure()
		}
	}
	for i := 0; i < cap(c.slots); i++ {
		<-c.slots
	}
	return nil
}

// close drains, then shuts the connection and waits for the ack reader.
// The returned latencies and acked edge count are final.
func (c *cwt1) close() error {
	err := c.drain()
	close(c.pending)
	<-c.done
	c.conn.Close()
	if err == nil {
		err = c.err
	}
	return err
}

func (c *cwt1) failure() error {
	if c.err != nil {
		return c.err
	}
	return errors.New("CWT1 ack reader stopped")
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sleepUntil waits for t (returns at once when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
