// Package server turns the streamcard library into a long-running
// networked cardinality service: an HTTP daemon that ingests user-item
// edges continuously and answers per-user cardinality queries at any
// moment — the deployment the sliding-window line of work assumes (a
// monitor that is fed forever and asked "how many distinct contacts did
// this host have recently?" at arbitrary instants).
//
// The estimator stack is Sharded(Windowed(FreeRS|FreeBS)): sharding for
// multi-core ingest, windowing so answers cover the recent past, and a
// shared hash seed across shards so /total can merge the shard sketches
// into one low-variance union reading.
//
// Ingest speaks two batch protocols, negotiated by Content-Type: the
// newline-delimited "user item" text protocol (the same format the stream
// codec and cmd/spreaderwatch speak, and the same shape as a time-series
// database's line-protocol write path), and the CWB1 binary frame
// (stream.AppendWire/DecodeWire: length-prefixed fixed-width u64 pairs
// behind a CRC, decoded zero-copy into the edge batch), which removes the
// per-edge decimal parse that dominates text ingest at service rates. The
// handler decodes the body into an edge batch, partitions it by shard at
// decode time (stream.Partitioner over Sharded.ShardIndex — one run-aware
// counting sort per batch, on the handler goroutine), and enqueues each
// shard-pure sub-batch on that shard's bounded queue. One executor
// goroutine per shard drains its queue and absorbs through the
// shard-direct fast path (Sharded.ObserveShardBatch), so within a single
// batch all touched shards absorb concurrently and each shard's mutex is
// uncontended by construction — adding shards adds ingest parallelism
// instead of lock contention. Executors coalesce: everything queued is
// drained and absorbed as one call, so per-run hoisting and writer-side
// snapshot publication amortize over multiple wire batches under load. A
// batch containing any malformed line (or a binary frame failing
// validation) is refused atomically with 400: either every edge of a
// batch is ingested or none is, so a client can always retry a rejected
// batch verbatim without double counting concerns beyond the sketch's
// built-in duplicate tolerance.
//
// Reads are snapshot-isolated: every query handler (/estimate, /total,
// /topk, /users) and the /metrics gauges serve from the stack's atomically
// published estimates-only view (streamcard.Sharded.Snapshot) instead of
// taking the sketch locks — a stalled /users reader cannot hold any sketch
// lock at all, and a read never waits on an absorbing batch
// (cmd/querybench gates the /estimate and /total tails under ingest). The
// checkpoint writer and the merged /total read the array words, which
// published views do not carry: they take a full cut
// (streamcard.Sharded.FullSnapshot) that holds the shard locks only while
// its O(1) forks are taken, so a slow checkpoint fsync still holds no
// sketch lock. The write path — shard
// executors and epoch rotation — is the only lock domain left: rotation
// is a quiesce cut over the whole pipeline (the ingest gate excludes new
// submissions, then the cut waits for every submitted batch to be fully
// absorbed across all of its shards before the epoch advances), so a
// batch is never attributed astride an epoch boundary — not even when its
// sub-batches sit on different shard queues — while queries run through
// rotations (each one sees a single consistent epoch, never a torn
// pre/post-rotation mix).
//
// Time advances by wall-clock epoch rotation (Config.Epoch) through
// Sharded.Rotate, which rotates every shard under all the shard locks and
// publishes the next epoch's view whole, so all shards always sit at the
// same epoch. The full windowed state checkpoints periodically (and always
// on graceful shutdown) to a spool directory as an atomically-written
// file; a restarted daemon restores it and resumes in bit-identical
// lockstep with an uninterrupted twin.
//
// # The ack contract
//
// What a 200/202 ingest response promises depends on Config.WALDir:
//
//   - WAL off (default): the batch is in the ingest pipeline (202) or
//     absorbed (200 with ?wait=1). A crash loses everything since the last
//     spool checkpoint. The hot path pays nothing for the feature's
//     existence — one nil check, no lock, no allocation.
//   - WAL on: before ANY ack, the batch is appended to the write-ahead log
//     (internal/wal) in a single write(2) — so an acked batch survives
//     kill -9 under every fsync policy — and under WALSync "always" it is
//     also fsynced (group-committed), extending the guarantee to power
//     loss. Rotations are logged the same way, so a restart replays the
//     log tail on top of the newest checkpoint and resumes bit-identical
//     to a never-crashed twin: same registers, same epochs, same answers.
//     A batch the log cannot record is refused with 500 and never
//     absorbed, and the WAL's first error latches, so the service can
//     never ack what the log lost. Checkpoints double as truncation
//     points: once the spool write succeeds, WAL segments it fully covers
//     are deleted, bounding log disk usage between checkpoints.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	streamcard "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Config describes a cardinality service instance. The sketch parameters
// (Method, MemoryBits, Shards, Generations, Seed) are the service's
// identity: a spool checkpoint records them and refuses to restore into a
// differently configured server, because restoring a sketch into a stack
// that would rotate fresh generations of a different shape silently
// degrades every later answer.
type Config struct {
	// Method selects the estimator: "freers" (default) or "freebs".
	Method string
	// MemoryBits is the total sketch budget, split evenly across shards and
	// spent k times over (once per live generation). Default 1<<26.
	MemoryBits int
	// Shards is the number of independently locked shards. Default 4.
	Shards int
	// Generations is the window's live generation count k (>= 2); queries
	// cover between k-1 and k epochs. Default 4.
	Generations int
	// Seed is the hash seed shared by every shard (sharing it is what makes
	// /total's merged union possible; per-user estimates are exact under
	// user-partitioning either way). Default 1.
	Seed uint64
	// Epoch is the wall-clock rotation period; 0 disables automatic
	// rotation (epochs then advance only through POST /rotate).
	Epoch time.Duration
	// CheckpointEvery is the periodic checkpoint interval; 0 checkpoints
	// only on graceful shutdown. Ignored without a SpoolDir.
	CheckpointEvery time.Duration
	// SpoolDir is where checkpoints live; "" disables persistence.
	SpoolDir string
	// WALDir enables the write-ahead log: every accepted ingest batch and
	// every epoch rotation is logged (internal/wal) before it is acked, and
	// a restart replays the log tail on top of the newest spool checkpoint,
	// so a SIGKILL loses nothing that was acked. "" disables the WAL — the
	// default — and the ingest hot path then takes no WAL lock and makes no
	// WAL allocation at all.
	WALDir string
	// WALSync selects the fsync policy: "interval" (default; a background
	// group-committer fsyncs every WALFlushInterval), "always" (fsync
	// before each ack, group-committed), or "never" (the OS decides).
	// Acked batches survive a process kill under every policy — each
	// record reaches the kernel in one write(2) before the ack; the policy
	// only bounds what power loss or a kernel crash can take.
	WALSync string
	// WALFlushInterval is the "interval" policy's group-commit cadence.
	// Default 50ms.
	WALFlushInterval time.Duration
	// WALSegmentBytes bounds one WAL segment file; checkpoints delete
	// fully-covered segments whole. Default 64 MiB.
	WALSegmentBytes int64
	// Retain bounds the spool: besides current.ckpt (always the newest
	// checkpoint), each write leaves a ckpt-<seq>.ckpt history entry, and
	// entries beyond the newest Retain are deleted after every successful
	// write — without it a long-lived daemon with periodic checkpointing
	// accumulates files without bound. Like every field here, 0 means the
	// default (3); at least one history entry is always kept, since the
	// newest is a free hard link to current.ckpt.
	Retain int
	// QueueDepth bounds each shard's sub-batch queue; a full queue blocks
	// ingest handlers, which is the service's backpressure. Default 64.
	QueueDepth int
	// MaxBodyBytes bounds one ingest request body. Default 8 MiB.
	MaxBodyBytes int64
}

// Defaults returns the zero Config with every default filled in, exactly as
// New fills it.
func Defaults() Config {
	var c Config
	_ = c.fillDefaults() // the zero Config is valid
	return c
}

func (c *Config) fillDefaults() error {
	if c.Method == "" {
		c.Method = "freers"
	}
	if c.Method != "freers" && c.Method != "freebs" {
		return fmt.Errorf("server: unknown method %q (want freers or freebs)", c.Method)
	}
	if c.MemoryBits == 0 {
		c.MemoryBits = 1 << 26
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 0 || c.MemoryBits < 0 {
		return errors.New("server: negative sizes")
	}
	// The sketch constructors panic below their register floor; turn a
	// too-small budget into a config error before any panic can fire.
	if c.MemoryBits/c.Shards < 64 {
		return fmt.Errorf("server: MemoryBits/Shards = %d bits per shard is below the sketch minimum (64)",
			c.MemoryBits/c.Shards)
	}
	if c.Generations == 0 {
		c.Generations = 4
	}
	if c.Generations < 2 || c.Generations > core.MaxWindowGenerations {
		// Above the bound the service would run, but no checkpoint of it
		// could ever be written.
		return fmt.Errorf("server: generations %d out of range [2, %d]", c.Generations, core.MaxWindowGenerations)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.QueueDepth < 0 || c.MaxBodyBytes < 0 {
		// A negative queue panics make(chan).
		return errors.New("server: QueueDepth and MaxBodyBytes must be positive")
	}
	if c.WALSync == "" {
		c.WALSync = "interval"
	}
	if _, err := wal.ParsePolicy(c.WALSync); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if c.WALFlushInterval == 0 {
		c.WALFlushInterval = wal.DefaultFlushInterval
	}
	if c.WALFlushInterval < 0 {
		return errors.New("server: negative WALFlushInterval")
	}
	if c.WALSegmentBytes == 0 {
		c.WALSegmentBytes = wal.DefaultSegmentBytes
	}
	if c.WALSegmentBytes < 0 {
		return errors.New("server: negative WALSegmentBytes")
	}
	if c.Retain == 0 {
		c.Retain = 3
	}
	if c.Retain < 1 {
		return fmt.Errorf("server: Retain must keep at least 1 checkpoint, got %d", c.Retain)
	}
	return nil
}

// ingestBatch tracks one decoded wire batch across the shard queues its
// sub-batches fanned out to. The batch is "absorbed" — its edges counted,
// its waiter released, its partition buffers pooled — only when the LAST
// shard executor finishes its sub-batch, so the ?wait=1 contract and the
// Drain barrier still mean the whole batch, not a lucky shard of it.
type ingestBatch struct {
	part      *stream.Partitioned
	edges     int
	remaining atomic.Int32  // shard sub-batches not yet absorbed
	done      chan struct{} // non-nil for ?wait=1 requests
}

// shardItem is one shard-pure sub-batch queued for a shard executor.
type shardItem struct {
	edges []stream.Edge
	batch *ingestBatch
}

// coalesceMaxEdges caps how many edges one executor drain may merge into a
// single absorb call. Coalescing amortizes the shard lock, the per-run
// hoisting, and the snapshot publication over every wire batch that queued
// up during the previous absorb; the cap keeps the executor's append
// buffer bounded (16 B/edge) no matter how deep the backlog grows.
const coalesceMaxEdges = 1 << 18

// Server is a runnable cardinality service. Create with New, expose with
// Handler (mount it on any http.Server or httptest), and stop with Close.
type Server struct {
	cfg   Config
	start time.Time

	// wins are the per-shard windows. The spool restore writes them before
	// sh is built; from then on sh owns them, and the server only reads
	// them directly (the UserEntries gauges and Epoch).
	wins []*streamcard.Windowed
	sh   *streamcard.Sharded // the serving stack over wins

	// part splits each decoded batch into shard-pure sub-batches once, on
	// the handler goroutine (decode-time partitioning), routed exactly as
	// the stack itself routes (Sharded.ShardIndex).
	part *stream.Partitioner
	// queues is the pipeline: one bounded sub-batch queue per shard, each
	// drained by exactly one executor goroutine, so every shard's
	// sub-stream has a single writer and the shard mutex is uncontended by
	// construction. A full queue blocks submitters — backpressure.
	queues []chan shardItem
	execWG sync.WaitGroup

	// gate orders submissions against the two whole-pipeline cuts: a
	// submitter holds it shared from the closed check through its last
	// queue send, so when rotate (or Close) acquires it exclusively, no
	// batch is half-fanned-out — every submitted batch sits entirely in the
	// queues. Rotation then drains pending to zero before advancing the
	// epoch: the cut that guarantees no batch is ever attributed astride an
	// epoch boundary, even though its sub-batches absorb on different
	// executors. Queries never touch the gate — they read the stack's
	// published snapshot, which freezes one consistent epoch on its own —
	// and checkpoints take it only with the WAL on, to pair their full cut
	// with a log position.
	gate   sync.RWMutex
	closed bool
	// pending counts batches submitted but not yet fully absorbed (queued
	// sub-batches AND sub-batches an executor is mid-absorb, across all
	// shards of the batch); Drain and the rotation cut wait on it reaching
	// zero.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  int

	// wal is the durability log between checkpoints; nil when disabled
	// (Config.WALDir == ""), and the ingest path then costs one nil check.
	// walMu makes {log append, queue fan-out} one atomic step per batch
	// (held inside the shared gate): the log's record order is then exactly
	// the order batches entered the shard queues, so a sequential replay of
	// the log reproduces every shard's sub-stream — and therefore every
	// register — bit-identically. epochEdges counts edges logged since the
	// last rotation record (guarded by walMu for submitters; rotate and the
	// checkpoint cut read it under the exclusive gate, which excludes all
	// submitters).
	wal        *wal.WAL
	walMu      sync.Mutex
	epochEdges uint64

	tickerWG   sync.WaitGroup
	stopTicker chan struct{}
	closeOnce  sync.Once
	closeErr   error
	restored   bool
	// replayedRecords/Edges report what New re-applied from the WAL tail.
	replayedRecords int
	replayedEdges   int
	// ckptMu serializes whole checkpoints (marshal through rename) so a
	// slow write can never overwrite a newer one. It also guards ckptSeq,
	// the monotonically increasing history sequence number (resumed from
	// the spool's existing files at startup).
	ckptMu  sync.Mutex
	ckptSeq uint64

	mux *http.ServeMux

	// tcp is the CWT1 persistent-transport listener state (tcp.go): the
	// connection/listener registry Close tears down.
	tcp tcpState

	// Instruments.
	reg            *metrics.Registry
	edgesIngested  *metrics.Counter
	batches        *metrics.Counter
	coalesced      *metrics.Counter
	batchesRefused *metrics.Counter
	rotations      *metrics.Counter
	checkpoints    *metrics.Counter
	ckptFailures   *metrics.Counter
	retiredGens    *metrics.Counter
	retiredPairs   *metrics.Counter // Σ TotalDistinct of retired generations, rounded
	walFsync       *metrics.Histogram
	walBytes       *metrics.Counter
	walRecords     *metrics.Counter
	walTruncated   *metrics.Counter
	latency        map[string]*metrics.Histogram
	analytics      map[string]*metrics.Histogram
	tcpConnsTotal  *metrics.Counter
	tcpFrames      *metrics.Counter
	tcpBytesRead   *metrics.Counter
	tcpAckByStatus map[uint16]*metrics.Counter
	tcpStalls      *metrics.Counter
	tcpAckLatency  *metrics.Histogram
}

// ErrClosed is returned by ingestion paths once Close has begun.
var ErrClosed = errors.New("server: closed")

// New builds the estimator stack, restores the latest spool checkpoint if
// one exists, and starts the ingest workers and (if configured) the
// rotation and checkpoint tickers.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		start:      time.Now(),
		queues:     make([]chan shardItem, cfg.Shards),
		stopTicker: make(chan struct{}),
		reg:        metrics.NewRegistry(),
		latency:    make(map[string]*metrics.Histogram),
		analytics:  make(map[string]*metrics.Histogram),
	}
	for i := range s.queues {
		s.queues[i] = make(chan shardItem, cfg.QueueDepth)
	}
	s.pendCond = sync.NewCond(&s.pendMu)
	s.initMetrics()

	perShardBits := cfg.MemoryBits / cfg.Shards
	buildSketch := func() streamcard.Estimator {
		if cfg.Method == "freebs" {
			return streamcard.NewFreeBS(perShardBits, streamcard.WithSeed(cfg.Seed))
		}
		return streamcard.NewFreeRS(perShardBits, streamcard.WithSeed(cfg.Seed))
	}
	s.wins = make([]*streamcard.Windowed, cfg.Shards)
	for i := range s.wins {
		s.wins[i] = streamcard.NewWindowed(buildSketch,
			streamcard.WithGenerations(cfg.Generations),
			streamcard.WithOnRetire(func(g streamcard.Estimator) {
				s.retiredGens.Inc()
				s.retiredPairs.Add(uint64(g.TotalDistinct() + 0.5))
			}))
	}
	for i := range s.wins {
		i := i
		s.reg.Gauge("cardserved_shard_queue_depth", fmt.Sprintf(`shard="%d"`, i),
			"Sub-batches waiting on this shard's executor queue.",
			func() float64 { return float64(len(s.queues[i])) })
		// UserEntries, not NumUsers: a scrape must not pay an O(users)
		// merge map per shard every few seconds. Entries upper-bound users
		// (one per generation a user is active in). UserEntries is the one
		// deliberately non-snapshot read: O(k) counter loads under a brief
		// hold of the window's lock, so a scrape neither blocks on a long
		// read nor forces the writer into a fresh copy-on-write detach.
		s.reg.Gauge("cardserved_shard_user_entries", fmt.Sprintf(`shard="%d"`, i),
			"Per-user estimate entries across the shard's live generations (upper bound on distinct users).",
			func() float64 { return float64(s.wins[i].UserEntries()) })
	}

	var restoredWALSeq uint64
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: spool: %w", err)
		}
		// Resume the history sequence past whatever a previous life left
		// behind, so new checkpoints never collide with retained ones.
		seqs, err := s.listHist()
		if err != nil {
			return nil, fmt.Errorf("server: spool: %w", err)
		}
		if len(seqs) > 0 {
			s.ckptSeq = seqs[len(seqs)-1]
		}
		restored, walSeq, epochEdges, err := s.restore()
		if err != nil {
			return nil, err
		}
		s.restored = restored
		restoredWALSeq, s.epochEdges = walSeq, epochEdges
	}

	// The Sharded takes ownership of the (restored) windows; everything
	// after this point, WAL replay included, writes them through it.
	s.sh = streamcard.NewSharded(cfg.Shards, func(i int) streamcard.Estimator { return s.wins[i] })
	// Decode-time partitioning routes exactly as the stack does: the same
	// hash, the same shard, so ObserveShardBatch never re-groups.
	s.part = stream.NewPartitioner(cfg.Shards, s.sh.ShardIndex)

	if cfg.WALDir != "" {
		if err := s.openWAL(restoredWALSeq); err != nil {
			return nil, err
		}
	}

	s.mux = http.NewServeMux()
	s.routes()

	for i := 0; i < cfg.Shards; i++ {
		s.execWG.Add(1)
		go s.shardExecutor(i)
	}
	if cfg.Epoch > 0 {
		s.every(cfg.Epoch, s.rotate)
	}
	if cfg.SpoolDir != "" && cfg.CheckpointEvery > 0 {
		s.every(cfg.CheckpointEvery, func() {
			if err := s.Checkpoint(); err != nil {
				// A failed periodic checkpoint must not kill the service;
				// the next interval (and shutdown) will retry. Checkpoint
				// has already counted the failure.
				fmt.Fprintf(os.Stderr, "cardserved: checkpoint: %v\n", err)
			}
		})
	}
	return s, nil
}

func (s *Server) initMetrics() {
	s.edgesIngested = s.reg.Counter("cardserved_edges_ingested_total", "",
		"Edges absorbed into the sketch.")
	s.batches = s.reg.Counter("cardserved_batches_total", "",
		"Ingest batches absorbed.")
	s.coalesced = s.reg.Counter("cardserved_coalesced_batches_total", "",
		"Sub-batches absorbed piggybacked on another sub-batch's lock hold (executor drain coalescing).")
	s.batchesRefused = s.reg.Counter("cardserved_batches_refused_total", "",
		"Ingest batches refused atomically for malformed lines.")
	s.rotations = s.reg.Counter("cardserved_rotations_total", "",
		"Epoch rotations fanned out across all shards.")
	s.checkpoints = s.reg.Counter("cardserved_checkpoints_total", "",
		"Checkpoints written to the spool.")
	s.ckptFailures = s.reg.Counter("cardserved_checkpoint_failures_total", "",
		"Checkpoints that failed, whether periodic, POST /checkpoint or shutdown.")
	s.retiredGens = s.reg.Counter("cardserved_retired_generations_total", "",
		"Generations aged out of the windows.")
	s.retiredPairs = s.reg.Counter("cardserved_retired_pairs_total", "",
		"Estimated distinct pairs held by retired generations (rounded).")
	s.reg.Gauge("cardserved_queue_depth", "",
		"Sub-batches waiting across all shard executor queues.",
		func() float64 {
			total := 0
			for _, q := range s.queues {
				total += len(q)
			}
			return float64(total)
		})
	s.reg.Gauge("cardserved_shard_queue_imbalance", "",
		"Max/mean shard queue occupancy (1 = perfectly balanced, 0 = idle): a hot-shard skew detector.",
		func() float64 {
			total, max := 0, 0
			for _, q := range s.queues {
				n := len(q)
				total += n
				if n > max {
					max = n
				}
			}
			if total == 0 {
				return 0
			}
			return float64(max) * float64(len(s.queues)) / float64(total)
		})
	for _, h := range []string{"/ingest", "/estimate", "/total", "/topk", "/users"} {
		s.latency[h] = s.reg.Histogram("cardserved_http_request_seconds",
			fmt.Sprintf(`handler="%s"`, h),
			"Request latency by handler.", metrics.LatencyBuckets())
	}
	// Analytics computations timed separately from their HTTP envelopes:
	// the histogram brackets only the sketch-side work (selection, fold,
	// merge, enumeration), not request parsing or response encoding.
	for _, q := range []string{"topk", "users", "numusers", "merged_total"} {
		s.analytics[q] = s.reg.Histogram("cardserved_analytics_seconds",
			fmt.Sprintf(`query="%s"`, q),
			"Analytics computation latency (sketch-side work only) by query.",
			metrics.LatencyBuckets())
	}
	s.reg.Gauge("cardserved_tcp_connections_active", "",
		"Open CWT1 ingest connections.",
		func() float64 { return float64(s.tcp.active.Load()) })
	s.tcpConnsTotal = s.reg.Counter("cardserved_tcp_connections_total", "",
		"CWT1 ingest connections accepted since start.")
	s.tcpFrames = s.reg.Counter("cardserved_tcp_frames_total", "",
		"CWT1 frames read off ingest connections (accepted or rejected).")
	s.tcpBytesRead = s.reg.Counter("cardserved_tcp_bytes_read_total", "",
		"Bytes read off CWT1 ingest connections.")
	s.tcpAckByStatus = make(map[uint16]*metrics.Counter)
	for _, st := range []uint16{stream.AckOK, stream.AckBad, stream.AckError, stream.AckShutdown} {
		s.tcpAckByStatus[st] = s.reg.Counter("cardserved_tcp_acks_total",
			fmt.Sprintf(`status="%d"`, st),
			"CWT1 acks written, by status.")
	}
	s.tcpStalls = s.reg.Counter("cardserved_tcp_backpressure_stalls_total", "",
		"CWT1 frame fan-outs that found a shard queue full and blocked (reads stall: backpressure).")
	s.tcpAckLatency = s.reg.Histogram("cardserved_tcp_ack_seconds", "",
		"Frame-read-to-ack-write latency over CWT1 (includes WAL commit).",
		metrics.LatencyBuckets())
}

// observeAnalytics records one analytics computation's latency.
func (s *Server) observeAnalytics(query string, start time.Time) {
	if h := s.analytics[query]; h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Estimator exposes the underlying sharded stack (tests compare it against
// twins; embedding applications can query in-process without HTTP).
func (s *Server) Estimator() *streamcard.Sharded { return s.sh }

// Epoch returns the current epoch (all shards agree by construction).
func (s *Server) Epoch() int { return s.wins[0].Epoch() }

// Restored reports whether New found and restored a spool checkpoint.
func (s *Server) Restored() bool { return s.restored }

// shardExecutor is shard idx's single writer: it drains the shard's queue
// and absorbs each sub-batch through the shard-direct fast path
// (ObserveShardBatch — no re-partitioning, a mutex no other goroutine
// takes on the ingest path). Before absorbing it coalesces: every
// sub-batch already queued (up to coalesceMaxEdges) is drained and
// absorbed as ONE call, so under backlog the shard lock, the estimator's
// per-run hoisting, and the writer-side snapshot publication amortize over
// all the wire batches that arrived during the previous absorb, and the
// pipeline speeds up under load instead of thrashing. Per-shard FIFO is
// preserved — the queue is drained in order and the coalesced slice
// concatenates in that order — which is what keeps every shard's
// sub-stream, and therefore every estimate, bit-identical to a sequential
// twin.
func (s *Server) shardExecutor(idx int) {
	defer s.execWG.Done()
	q := s.queues[idx]
	var buf []stream.Edge
	items := make([]shardItem, 0, 8)
	for it := range q {
		items = append(items[:0], it)
		total := len(it.edges)
	drain:
		for total < coalesceMaxEdges {
			select {
			case more, ok := <-q:
				if !ok {
					break drain // closed and empty; absorb what we hold
				}
				items = append(items, more)
				total += len(more.edges)
			default:
				break drain
			}
		}
		edges := it.edges
		if len(items) > 1 {
			buf = buf[:0]
			for _, x := range items {
				buf = append(buf, x.edges...)
			}
			edges = buf
			s.coalesced.Add(uint64(len(items) - 1))
		}
		s.sh.ObserveShardBatch(idx, edges)
		for i := range items {
			s.finishShardItem(items[i].batch)
			items[i] = shardItem{} // drop the sub-batch reference
		}
	}
}

// finishShardItem marks one shard's sub-batch absorbed; the batch's LAST
// sub-batch settles the whole batch — counters move, the ?wait=1 waiter is
// released, the partition buffers return to the pool, and pending drops.
func (s *Server) finishShardItem(b *ingestBatch) {
	if b.remaining.Add(-1) != 0 {
		return
	}
	s.edgesIngested.Add(uint64(b.edges))
	s.batches.Inc()
	b.part.Release()
	if b.done != nil {
		close(b.done)
	}
	s.pendMu.Lock()
	s.pending--
	if s.pending == 0 {
		s.pendCond.Broadcast()
	}
	s.pendMu.Unlock()
}

// submit partitions a decoded batch into shard-pure sub-batches (the one
// counting sort of the batch's life) and fans them out to the shard
// queues, optionally waiting for the whole batch to be absorbed (the
// ?wait=1 contract: when the response arrives, queries reflect the batch).
// The fan-out runs under the shared side of the ingest gate, so a rotation
// or Close can never observe — or interleave into — a half-submitted
// batch.
//
// The ack contract with the WAL enabled: the batch is appended to the log
// — one write(2) into the kernel — BEFORE this function can return nil, so
// by the time the handler acks (202 or 200), the batch survives a process
// kill; under the "always" policy it is also fsynced first. Append and
// fan-out happen atomically under walMu, making the log's record order
// identical to every shard queue's arrival order — the property that lets
// a sequential replay reproduce the exact per-shard sub-streams and hence
// bit-identical state. A batch the WAL cannot log is refused (the error
// propagates as HTTP 500) and, because the WAL latches its first error,
// every later batch is refused too: the service never acks what the log
// lost. With the WAL disabled this path is untouched — one nil check.
func (s *Server) submit(edges []stream.Edge, wait bool) error {
	b, walSeq, err := s.submitAsync(edges, wait, nil)
	if err != nil || b == nil {
		return err
	}
	if s.wal != nil {
		// Under the "always" policy this is the group-committed fsync
		// barrier; other policies return immediately. Outside the gate so a
		// slow disk never blocks rotation, and outside walMu so appenders
		// queue behind one leader's fsync instead of serializing on it.
		if err := s.wal.Commit(walSeq); err != nil {
			// The batch is queued and will be absorbed, but its durability
			// is unknown — refuse the ack; the client's retry is safe (the
			// atomic-batch contract tolerates replayed duplicates).
			return fmt.Errorf("server: wal sync: %w", err)
		}
	}
	if wait {
		<-b.done
	}
	return nil
}

// submitAsync is submit's pipelined core: partition, WAL append, and queue
// fan-out — everything up to but NOT including the durability barrier
// (wal.Commit) and the absorption wait. It exists for the TCP transport,
// where the reader goroutine must keep consuming frames while earlier
// frames' fsyncs are still in flight: the reader calls submitAsync and
// hands the returned walSeq to the acker goroutine, which Commits before
// writing each ack — so under WALSync "always" the fsync latency overlaps
// with reading (and appending) later frames instead of serializing ingest.
//
// edges is the caller's again once submitAsync returns, whatever the
// outcome: Split copies the batch into the partition's own buffer and the
// WAL append encodes it before the return, so the TCP reader reads its
// next frame into the same buffer. stalls, when non-nil, counts queue
// sends that found the shard queue full — the backpressure signal. On
// error nothing is queued; a nil batch with nil error means the batch was
// empty.
func (s *Server) submitAsync(edges []stream.Edge, wait bool, stalls *metrics.Counter) (*ingestBatch, uint64, error) {
	s.gate.RLock()
	if s.closed {
		s.gate.RUnlock()
		return nil, 0, ErrClosed
	}
	b := &ingestBatch{part: s.part.Split(edges), edges: len(edges)}
	touched := 0
	for t := 0; t < s.cfg.Shards; t++ {
		if len(b.part.Shard(t)) > 0 {
			touched++
		}
	}
	if touched == 0 {
		b.part.Release()
		s.gate.RUnlock()
		return nil, 0, nil
	}
	if wait {
		b.done = make(chan struct{})
	}
	b.remaining.Store(int32(touched))
	var walSeq uint64
	if s.wal != nil {
		s.walMu.Lock()
		seq, err := s.wal.AppendBatch(edges)
		if err != nil {
			s.walMu.Unlock()
			b.part.Release()
			s.gate.RUnlock()
			return nil, 0, fmt.Errorf("server: refusing unlogged batch: %w", err)
		}
		walSeq = seq
		s.epochEdges += uint64(len(edges))
		s.enqueue(b, stalls)
		s.walMu.Unlock()
	} else {
		s.enqueue(b, stalls)
	}
	s.gate.RUnlock()
	return b, walSeq, nil
}

// enqueue fans a counted batch out to its shard queues. Callers hold the
// shared gate (and, with the WAL on, walMu). A full queue blocks the send —
// that block IS the service's backpressure (an HTTP handler stalls its
// request; the TCP reader stops reading and the client's send window
// fills) — and, when a stall counter is supplied, is counted.
func (s *Server) enqueue(b *ingestBatch, stalls *metrics.Counter) {
	s.pendMu.Lock()
	s.pending++
	s.pendMu.Unlock()
	for t := 0; t < s.cfg.Shards; t++ {
		sub := b.part.Shard(t)
		if len(sub) == 0 {
			continue
		}
		item := shardItem{edges: sub, batch: b}
		if stalls == nil {
			s.queues[t] <- item
			continue
		}
		select {
		case s.queues[t] <- item:
		default:
			stalls.Inc()
			s.queues[t] <- item
		}
	}
}

// Drain blocks until the ingest pipeline is empty: every batch submitted
// so far — queued or mid-absorption on an executor, on every shard it
// fanned out to — has landed in the sketch. Concurrent submitters extend
// the wait; Drain returns at the first lull.
func (s *Server) Drain() {
	s.pendMu.Lock()
	for s.pending > 0 {
		s.pendCond.Wait()
	}
	s.pendMu.Unlock()
}

// every runs fn every d on its own goroutine until Close stops the tickers.
func (s *Server) every(d time.Duration, fn func()) {
	s.tickerWG.Add(1)
	go func() {
		defer s.tickerWG.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-s.stopTicker:
				return
			}
		}
	}()
}

// rotate advances every shard one epoch behind a whole-pipeline quiesce
// cut: the exclusive gate first excludes new submissions (and, because
// submitters hold the gate across their whole fan-out, guarantees no batch
// is half-enqueued), then the drain waits for every already-submitted
// batch to finish absorbing on every shard it touched. Only then does the
// epoch advance — so a batch's sub-batches can never straddle a rotation
// even though they absorb on independent executors, and all shards stay in
// lockstep. The cut costs one queue drain (milliseconds at service depth),
// paid at epoch cadence; queries never wait on it (they read published
// snapshots).
// With the WAL on, the cut is logged as a rotation record BEFORE the epoch
// advances, carrying the closing epoch and the number of edges logged
// during it: replay uses the pair to verify it rotates at exactly the same
// stream position. A rotation the log cannot record still proceeds — the
// WAL's latched error already guarantees no further batch will be acked,
// so nothing after the unlogged cut can diverge — but is reported loudly.
func (s *Server) rotate() {
	s.gate.Lock()
	s.Drain()
	if s.wal != nil {
		// Submitters are excluded by the gate, so epochEdges is stable and
		// the rotation record sits at the exact batch boundary.
		seq, err := s.wal.AppendRotation(uint64(s.Epoch()), s.epochEdges)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cardserved: wal rotation record: %v\n", err)
		} else {
			s.epochEdges = 0
			if err := s.wal.Commit(seq); err != nil {
				fmt.Fprintf(os.Stderr, "cardserved: wal rotation commit: %v\n", err)
			}
		}
	}
	s.sh.Rotate()
	s.gate.Unlock()
	s.rotations.Inc()
}

// Checkpoint freezes the full windowed state of every shard from a
// Sharded.FullSnapshot cut (one epoch; each shard a valid frozen prefix of
// its own sub-stream, arrays included) and writes it atomically to the
// spool. Without a WAL, the cut holds every shard lock only while the O(1)
// copy-on-write forks are taken, so it waits at most for the absorbs in
// flight; the marshal and the disk write run with no sketch lock held, so
// a slow fsync cannot stall ingest or rotation. Each shard's next write
// then pays one copy of its current generation's array — once per
// checkpoint, not per batch. No-op without a spool directory. Checkpoints
// are serialized by ckptMu so two concurrent calls (POST /checkpoint vs the
// periodic ticker) cannot rename out of order and leave the older snapshot
// as current.ckpt. Every failure, from any caller, counts into
// cardserved_checkpoint_failures_total.
//
// With the WAL on, the checkpoint is also a log truncation point, which
// needs an exact (state, WAL position) pair: the cut briefly quiesces the
// pipeline (exclusive gate + drain — the same cut rotation pays, at
// checkpoint cadence) to capture the full cut and the log sequence it
// corresponds to, then marshals and writes OUTSIDE the lock as before.
// Only after the spool write succeeds are the log's fully-covered segments
// deleted — a crash between the two leaves extra replayable records below
// the checkpoint, which replay skips; disk stays bounded across repeated
// checkpoint cycles either way.
func (s *Server) Checkpoint() error {
	if s.cfg.SpoolDir == "" {
		return nil
	}
	if err := s.checkpoint(); err != nil {
		s.ckptFailures.Inc()
		return err
	}
	s.checkpoints.Inc()
	return nil
}

// checkpoint is Checkpoint's body: cut, marshal, write, truncate.
func (s *Server) checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	var (
		view       *streamcard.ShardedView
		walSeq     uint64
		epochEdges uint64
	)
	if s.wal != nil {
		s.gate.Lock()
		s.Drain()
		walSeq = s.wal.LastSeq()
		epochEdges = s.epochEdges
		view = s.sh.FullSnapshot()
		s.gate.Unlock()
	} else {
		view = s.sh.FullSnapshot()
	}
	data, err := s.marshalSpool(view, walSeq, epochEdges)
	if err != nil {
		return err
	}
	if err := s.saveSpool(data); err != nil {
		return err
	}
	if s.wal != nil {
		if _, err := s.wal.TruncateThrough(walSeq); err != nil {
			// The checkpoint itself landed; failing to prune only costs
			// disk. Report it, don't fail the checkpoint.
			fmt.Fprintf(os.Stderr, "cardserved: wal truncate: %v\n", err)
		}
	}
	return nil
}

func (s *Server) spoolPath() string {
	return filepath.Join(s.cfg.SpoolDir, "current.ckpt")
}

// restore loads the newest checkpoint from the spool, if any, into the
// freshly built stack: current.ckpt, or — only when that pointer file
// itself is missing — the newest retained history entry. A checkpoint that
// exists but fails to decode is a startup error, never silently skipped.
// Returns the checkpoint's WAL position and in-epoch baseline alongside.
// Called from New before any traffic, so no locking.
func (s *Server) restore() (bool, uint64, uint64, error) {
	path := s.spoolPath()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if s.ckptSeq == 0 {
			return false, 0, 0, nil
		}
		path = s.histPath(s.ckptSeq)
		data, err = os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return false, 0, 0, nil
		}
	}
	if err != nil {
		return false, 0, 0, fmt.Errorf("server: reading spool: %w", err)
	}
	walSeq, epochEdges, err := s.unmarshalSpool(data)
	if err != nil {
		return false, 0, 0, fmt.Errorf("server: restoring %s: %w", path, err)
	}
	return true, walSeq, epochEdges, nil
}

// openWAL opens the durability log above the restored checkpoint's
// position, registers its instruments, and replays the tail. Called from
// New after the spool restore and before the executors start, so replay
// applies single-threaded into a quiet stack.
func (s *Server) openWAL(restoredSeq uint64) error {
	policy, _ := wal.ParsePolicy(s.cfg.WALSync) // validated by fillDefaults
	s.walFsync = s.reg.Histogram("cardserved_wal_fsync_seconds", "",
		"WAL fsync (group commit) latency.", metrics.LatencyBuckets())
	s.walBytes = s.reg.Counter("cardserved_wal_bytes_written_total", "",
		"Bytes appended to the WAL.")
	s.walRecords = s.reg.Counter("cardserved_wal_records_appended_total", "",
		"Records (ingest batches and rotations) appended to the WAL.")
	s.walTruncated = s.reg.Counter("cardserved_wal_segments_truncated_total", "",
		"WAL segments deleted by checkpoint truncation.")
	w, err := wal.Open(wal.Options{
		Dir:           s.cfg.WALDir,
		Fingerprint:   s.fingerprint(),
		StartSeq:      restoredSeq,
		SegmentBytes:  s.cfg.WALSegmentBytes,
		FlushInterval: s.cfg.WALFlushInterval,
		Policy:        policy,
		Metrics: wal.Metrics{
			OnAppend: func(records, bytes int) {
				s.walRecords.Add(uint64(records))
				s.walBytes.Add(uint64(bytes))
			},
			OnFsync:    func(seconds float64) { s.walFsync.Observe(seconds) },
			OnTruncate: func(segments int) { s.walTruncated.Add(uint64(segments)) },
		},
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.reg.Gauge("cardserved_wal_segment_count", "",
		"WAL segment files on disk.",
		func() float64 { return float64(w.SegmentCount()) })
	s.reg.Gauge("cardserved_wal_unsynced_bytes", "",
		"Bytes appended to the WAL since its last fsync.",
		func() float64 { return float64(w.UnsyncedBytes()) })
	if err := s.walReplay(w, restoredSeq); err != nil {
		w.Close()
		return err
	}
	s.wal = w
	return nil
}

// walReplay applies the log tail above the checkpoint: batch records
// re-absorb through the same whole-batch path a live submit's per-shard
// fan-out projects to (per-shard sub-streams are identical either way —
// the bit-identity the pipeline tests pin), and rotation records re-cut
// epochs at exactly the logged stream positions, cross-checked against the
// epoch and in-epoch edge count the restored state implies. A mismatch
// means the log and the checkpoint describe different histories — a loud
// startup error, never a silent divergence.
func (s *Server) walReplay(w *wal.WAL, after uint64) error {
	err := w.Replay(after, func(rec wal.Record) error {
		switch rec.Type {
		case wal.TypeBatch:
			s.sh.ObserveBatch(rec.Edges)
			s.epochEdges += uint64(len(rec.Edges))
			s.edgesIngested.Add(uint64(len(rec.Edges)))
			s.batches.Inc()
			s.replayedEdges += len(rec.Edges)
		case wal.TypeRotation:
			if uint64(s.Epoch()) != rec.Epoch || s.epochEdges != rec.EpochEdges {
				return fmt.Errorf("rotation record %d closes epoch %d after %d edges, but the restored state sits at epoch %d after %d edges",
					rec.Seq, rec.Epoch, rec.EpochEdges, s.Epoch(), s.epochEdges)
			}
			s.sh.Rotate()
			s.rotations.Inc()
			s.epochEdges = 0
		default:
			return fmt.Errorf("unknown record type %q at seq %d", rec.Type, rec.Seq)
		}
		s.replayedRecords++
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: wal replay: %w", err)
	}
	return nil
}

// WALReplayed reports what New re-applied from the WAL tail on top of the
// restored checkpoint: records (batches + rotations) and total edges.
func (s *Server) WALReplayed() (records, edges int) {
	return s.replayedRecords, s.replayedEdges
}

// Close drains and stops the service: new ingest is refused, queued batches
// are absorbed, tickers stop, and (with a spool) a final checkpoint is
// written so a restart resumes exactly where this process left off. Safe to
// call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// TCP first: stop accepting, half-close every CWT1 connection so its
		// reader sees EOF at the next frame boundary, and wait for the
		// readers and ackers to drain. Their already-submitted frames sit in
		// the shard queues (executors are still running), and every frame
		// read before the half-close gets its ack before the connection
		// closes.
		s.tcpShutdown()
		s.gate.Lock()
		s.closed = true
		s.gate.Unlock()
		// No submitter can be mid-fan-out now (fan-outs run entirely under
		// the shared gate), so the queues hold only whole batches: closing
		// them lets each executor drain to empty and exit.
		for _, q := range s.queues {
			close(q)
		}
		s.execWG.Wait()
		close(s.stopTicker)
		s.tickerWG.Wait()
		s.closeErr = s.Checkpoint()
		if s.wal != nil {
			// After the final checkpoint (and its truncation): the log now
			// holds only what that checkpoint does not cover — nothing, on a
			// clean shutdown — and closes fsynced.
			if err := s.wal.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// ---- HTTP surface ----

func (s *Server) routes() {
	s.mux.HandleFunc("POST /ingest", s.timed("/ingest", s.handleIngest))
	s.mux.HandleFunc("GET /estimate", s.timed("/estimate", s.handleEstimate))
	s.mux.HandleFunc("GET /total", s.timed("/total", s.handleTotal))
	s.mux.HandleFunc("GET /topk", s.timed("/topk", s.handleTopK))
	s.mux.HandleFunc("GET /users", s.timed("/users", s.handleUsers))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /rotate", s.handleRotate)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /flush", s.handleFlush)
}

func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.latency[name]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.Observe(time.Since(t0).Seconds())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRawJSON writes a pre-rendered JSON body. The hot query handlers
// (/estimate, /total) render their fixed-shape responses with strconv
// appends into a stack buffer instead of building a map[string]any and
// reflecting through the generic encoder, which costs a handful of heap
// allocations per request — measurable at the rates those two endpoints
// are polled (see BenchmarkEstimateHandler).
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleIngest decodes one ingest batch and feeds it through the pipeline.
// The protocol is negotiated by Content-Type: stream.WireContentType
// selects the CWB1 binary frame (fixed-width u64 pairs behind a CRC,
// decoded zero-copy into the edge batch — the whole request body beyond
// the 12 framing bytes IS the batch memory), anything else the
// newline-delimited "user item" text protocol (stream.ParseTextBatch). A
// batch is atomic under both protocols: any malformed line, or a frame
// failing its CRC/length validation, refuses the whole request with 400
// and nothing is ingested — the client fixes and retries the batch as a
// unit, and a retried batch can never half-apply.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var edges []stream.Edge
	var err error
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.TrimSpace(ct) == stream.WireContentType {
		var buf []byte
		if buf, err = io.ReadAll(body); err == nil {
			edges, err = stream.DecodeWire(buf)
		}
	} else {
		edges, err = stream.ParseTextBatch(body)
	}
	if err != nil {
		s.batchesRefused.Inc()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"batch exceeds %d bytes; split it", s.cfg.MaxBodyBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "batch refused, nothing ingested: %v", err)
		return
	}
	if len(edges) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"edges": 0})
		return
	}
	wait := r.URL.Query().Get("wait") == "1"
	if err := s.submit(edges, wait); err != nil {
		// Shutdown is the retryable 503; a WAL append/sync failure is a 500:
		// the service cannot honor its durability ack and (the WAL error
		// having latched) will keep refusing until operator action.
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, "%v", err)
		return
	}
	status := http.StatusAccepted
	if wait {
		status = http.StatusOK // absorbed: queries now reflect this batch
	}
	writeJSON(w, status, map[string]any{"edges": len(edges)})
}

// parseUser accepts ?user=<uint64> or ?key=<string> (hashed with
// streamcard.Key, for curl-friendly string identifiers).
func parseUser(r *http.Request) (uint64, error) {
	if q := r.URL.Query().Get("user"); q != "" {
		u, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad user %q: %v", q, err)
		}
		return u, nil
	}
	if k := r.URL.Query().Get("key"); k != "" {
		return streamcard.Key(k), nil
	}
	return 0, errors.New("missing user= (uint64) or key= (string) parameter")
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	u, err := parseUser(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	est := s.sh.Snapshot().Estimate(u)
	var buf [64]byte
	b := append(buf[:0], `{"user":`...)
	b = strconv.AppendUint(b, u, 10)
	b = append(b, `,"estimate":`...)
	b = strconv.AppendFloat(b, est, 'g', -1, 64)
	b = append(b, '}', '\n')
	writeRawJSON(w, http.StatusOK, b)
}

// handleTotal reports the window's distinct-pair total. The default
// reading, "summed", is the anytime total: the sum of the per-shard frozen
// totals, an O(shards) arithmetic read off the published snapshot that
// never touches the sketch arrays — this is what keeps /total
// sub-millisecond under load. ?method=merged requests the union reading
// instead: the shard sketches merged register-by-register into one sketch
// (lower variance, since shared-seed shards overlap coherently), a fold
// over every live generation that costs milliseconds at serving sizes.
// The published snapshot carries no array words, so each merged request
// merges a full cut (Sharded.FullSnapshot) taken then. If the merge
// reports an error (the shards share one seed and rotate in lockstep, so
// none is expected) the merged request falls back to the sum and says so
// in "method"; an unknown method is a 400. The reported epoch is the
// snapshot's: exactly the summed total's epoch, while a rotation racing a
// merged request can put its full cut one epoch later.
func (s *Server) handleTotal(w http.ResponseWriter, r *http.Request) {
	method := r.URL.Query().Get("method")
	if method == "" {
		method = "summed"
	}
	if method != "summed" && method != "merged" {
		httpError(w, http.StatusBadRequest, "bad method %q: want summed or merged", method)
		return
	}
	v := s.sh.Snapshot()
	var total float64
	if method == "merged" {
		start := time.Now()
		var err error
		if total, err = v.TotalDistinctMerged(); err != nil {
			total, method = v.TotalDistinct(), "summed"
		}
		s.observeAnalytics("merged_total", start)
	} else {
		total = v.TotalDistinct()
	}
	var buf [96]byte
	b := append(buf[:0], `{"total":`...)
	b = strconv.AppendFloat(b, total, 'g', -1, 64)
	b = append(b, `,"method":"`...)
	b = append(b, method...)
	b = append(b, `","epoch":`...)
	b = strconv.AppendInt(b, int64(v.Epoch()), 10)
	b = append(b, '}', '\n')
	writeRawJSON(w, http.StatusOK, b)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "bad k %q: want a positive integer", q)
			return
		}
		k = v
	}
	// TopK runs the view's shard-concurrent selection.
	start := time.Now()
	top := streamcard.TopK(s.sh.Snapshot(), k)
	s.observeAnalytics("topk", start)
	type entry struct {
		User     uint64  `json:"user"`
		Estimate float64 `json:"estimate"`
	}
	out := make([]entry, len(top))
	for i, t := range top {
		out[i] = entry{User: t.User, Estimate: t.Estimate}
	}
	writeJSON(w, http.StatusOK, map[string]any{"k": k, "top": out})
}

// handleUsers enumerates every user with a nonzero estimate. The response
// is streamed from the estimate-table iterator into a buffered writer — no
// response-sized slice or generic-JSON tree is ever built, which at
// millions of users would briefly double the service's per-user memory on
// every call. (The sorted enumeration itself still uses one shard's entry
// scratch at a time — bounded by the largest shard, not the response.)
// Entries arrive in deterministic order (shards in
// index order, ascending user ID within each); ?limit=N truncates the list
// (first N in that order) while "count" still reports the full total, and
// "truncated" says whether a limit cut the list. The stream reads from the
// published snapshot, so NO sketch lock is held for its duration: a
// stalled or slow reader cannot stall ingest, rotation, or other queries
// at all. How long a dead client may pin the snapshot (and its
// copy-on-write arrays) and the handler goroutine is the serving
// http.Server's WriteTimeout (cardserved's -write-timeout).
// limit=0 is the pure count query and skips the sorted enumeration
// entirely.
func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	limit := -1
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", q)
			return
		}
		limit = v
	}
	if limit == 0 {
		start := time.Now()
		n := s.sh.Snapshot().NumUsers()
		s.observeAnalytics("numusers", start)
		writeJSON(w, http.StatusOK, map[string]any{
			"users": []any{}, "count": n, "truncated": n > 0,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(`{"users":[`)
	count := 0
	var num [32]byte
	// Timed around the enumeration: the parallel fold and sorted stream
	// dominate; encoding rides inside fn but is a few appends per user.
	start := time.Now()
	s.sh.Snapshot().Users(func(u uint64, e float64) {
		if limit < 0 || count < limit {
			if count > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`{"user":`)
			bw.Write(strconv.AppendUint(num[:0], u, 10))
			bw.WriteString(`,"estimate":`)
			bw.Write(strconv.AppendFloat(num[:0], e, 'g', -1, 64))
			bw.WriteByte('}')
		}
		count++
	})
	s.observeAnalytics("users", start)
	truncated := limit >= 0 && count > limit
	fmt.Fprintf(bw, `],"count":%d,"truncated":%v}`, count, truncated)
	bw.WriteByte('\n')
	_ = bw.Flush()
}

// handleHealthz reports the stack's shape. Once the WAL has latched an
// error every ingest is refused, so the daemon answers 503 with the error
// instead of "ok".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code, body := http.StatusOK, map[string]any{
		"status":      "ok",
		"method":      s.cfg.Method,
		"shards":      s.cfg.Shards,
		"generations": s.cfg.Generations,
		"epoch":       s.Epoch(),
		"uptime_s":    int(time.Since(s.start).Seconds()),
	}
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			code, body["status"], body["error"] = http.StatusServiceUnavailable, "wal failed", err.Error()
		}
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleRotate(w http.ResponseWriter, r *http.Request) {
	s.rotate()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": s.Epoch()})
}

// handleFlush waits until every batch accepted so far is absorbed — the
// barrier an async (202-mode) client calls before trusting a query to
// reflect its writes. With the WAL on it is also the durability barrier: a
// group-commit fsync is forced, so on success everything acked so far
// survives power loss too (the wal_unsynced_bytes gauge reads 0).
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			httpError(w, http.StatusInternalServerError, "wal fsync: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"flushed": true})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SpoolDir == "" {
		httpError(w, http.StatusConflict, "no spool directory configured")
		return
	}
	if err := s.Checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": s.spoolPath()})
}
