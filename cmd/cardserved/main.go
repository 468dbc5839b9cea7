// Command cardserved runs the cardinality service as a daemon: an HTTP
// server over a Sharded(Windowed(FreeRS|FreeBS)) stack that ingests
// user-item edges continuously and answers per-user cardinality queries at
// any moment, with wall-clock epoch rotation and checkpoint-backed
// durability.
//
// Usage:
//
//	cardserved -addr :8080 -mbits 67108864 -shards 8 -gens 4 \
//	    -epoch 5m -spool /var/spool/cardserved -checkpoint-every 1m
//
// Ingest is newline-delimited "user item" decimal pairs (blank lines and
// #-comments skipped); a batch with any malformed line is refused
// atomically with 400. Queries: /estimate?user=N (or ?key=string),
// /total, /topk?k=N, /users, /healthz, /metrics (Prometheus text). Ops:
// POST /rotate forces an epoch boundary, POST /checkpoint forces a spool
// write, POST /flush blocks until every accepted batch is absorbed.
//
//	curl -XPOST --data-binary $'1 100\n1 101\n2 100\n' 'localhost:8080/ingest?wait=1'
//	curl 'localhost:8080/estimate?user=1'
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains the ingest
// pipeline, writes a final checkpoint, and exits; a restart with the same
// configuration and spool directory resumes in bit-identical lockstep.
//
// With -wal-dir set, every acked batch is also appended to a write-ahead
// log before the ack, so even kill -9 loses nothing acked: the restart
// replays the log tail on top of the newest checkpoint. -wal-sync picks
// the fsync policy (always|interval|never — how much POWER loss can take;
// process crashes are covered under all three), -wal-flush-interval the
// group-commit cadence, and each checkpoint truncates the log's
// fully-covered segments.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil {
		fmt.Fprintln(os.Stderr, "cardserved:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal arrives (or the listener
// fails); factored from main so tests can drive the full lifecycle.
func run(args []string, out io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("cardserved", flag.ContinueOnError)
	// The config flags default to server.Defaults(), so -h shows exactly
	// what New would use.
	cfg := server.Defaults()
	fs.StringVar(&cfg.Method, "method", cfg.Method, "estimator: freers|freebs")
	fs.IntVar(&cfg.MemoryBits, "mbits", cfg.MemoryBits, "total sketch memory in bits (split across shards, spent once per generation)")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "independently locked shards")
	fs.IntVar(&cfg.Generations, "gens", cfg.Generations, "live window generations k (queries cover k-1..k epochs)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "hash seed shared across shards (enables merged /total)")
	fs.DurationVar(&cfg.Epoch, "epoch", cfg.Epoch, "wall-clock epoch length (0 = rotate only via POST /rotate)")
	fs.DurationVar(&cfg.CheckpointEvery, "checkpoint-every", cfg.CheckpointEvery, "periodic checkpoint interval (0 = only on shutdown)")
	fs.StringVar(&cfg.SpoolDir, "spool", cfg.SpoolDir, "checkpoint spool directory (empty = no persistence)")
	fs.StringVar(&cfg.WALDir, "wal-dir", cfg.WALDir, "write-ahead log directory (empty = no WAL); with a WAL, every acked batch survives kill -9 and a restart replays the log tail on top of the newest checkpoint")
	fs.StringVar(&cfg.WALSync, "wal-sync", cfg.WALSync, "WAL fsync policy: always|interval|never (power-loss durability; process crashes are covered under all three)")
	fs.DurationVar(&cfg.WALFlushInterval, "wal-flush-interval", cfg.WALFlushInterval, "WAL group-commit fsync cadence for -wal-sync interval")
	fs.Int64Var(&cfg.WALSegmentBytes, "wal-segment-bytes", cfg.WALSegmentBytes, "WAL segment file size bound (checkpoints delete fully-covered segments whole)")
	fs.IntVar(&cfg.Retain, "retain", cfg.Retain, "checkpoint history files kept in the spool (newest N; current.ckpt is always the newest)")
	fs.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "per-shard executor queue depth (full queue = backpressure)")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body", cfg.MaxBodyBytes, "max ingest request body bytes")
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		tcpAddr  = fs.String("tcp-addr", "", "CWT1 persistent TCP ingest listen address (empty = disabled); long-lived connections carrying pipelined CWB1 frames with per-frame acks")
		drainFor = fs.Duration("drain", 10*time.Second, "shutdown grace for in-flight HTTP requests")
		writeTO  = fs.Duration("write-timeout", 2*time.Minute, "per-response write deadline (0 = none); connection hygiene: a streaming endpoint like /users reads a published snapshot and holds no sketch lock, but a stalled reader pins its handler goroutine and that snapshot until the deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return err
	}
	// The write deadline is connection hygiene: /users streams from a
	// published snapshot and holds no sketch lock, but a client that stops
	// reading would still pin the handler goroutine and the snapshot's
	// copy-on-write arrays until its connection dies. WriteTimeout is the
	// only write deadline, /users included; 0 means none.
	httpSrv := &http.Server{Handler: s.Handler(), WriteTimeout: *writeTO}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	if *tcpAddr != "" {
		tcpLn, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			s.Close()
			return err
		}
		// ServeTCP returns ErrClosed when s.Close tears the listener down —
		// the clean path; anything else (a mid-run accept failure) is fatal
		// like an HTTP serve error.
		go func() {
			if err := s.ServeTCP(tcpLn); err != nil && !errors.Is(err, server.ErrClosed) {
				serveErr <- err
			}
		}()
		fmt.Fprintf(out, "cardserved: tcp ingest on %s\n", tcpLn.Addr())
	}
	if s.Restored() {
		fmt.Fprintf(out, "cardserved: restored checkpoint from %s (epoch=%d)\n", cfg.SpoolDir, s.Epoch())
	}
	if recs, edges := s.WALReplayed(); recs > 0 {
		fmt.Fprintf(out, "cardserved: replayed %d WAL records (%d edges) from %s (epoch=%d)\n",
			recs, edges, cfg.WALDir, s.Epoch())
	}
	fmt.Fprintf(out, "cardserved: listening on %s (method=%s mbits=%d shards=%d gens=%d epoch=%v spool=%q wal=%q)\n",
		ln.Addr(), cfg.Method, cfg.MemoryBits, cfg.Shards, cfg.Generations, cfg.Epoch, cfg.SpoolDir, cfg.WALDir)

	select {
	case got := <-sig:
		fmt.Fprintf(out, "cardserved: %v — draining\n", got)
	case err := <-serveErr:
		s.Close()
		return err
	}

	// Orderly stop: no new HTTP work, then drain the ingest pipeline and
	// write the final checkpoint.
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(out, "cardserved: http shutdown: %v\n", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(out, "cardserved: serve: %v\n", err)
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	fmt.Fprintf(out, "cardserved: stopped (epoch=%d)\n", s.Epoch())
	return nil
}
