package server

// The spool checkpoint envelope: one file holding every shard's complete
// windowed state (each shard is a WIN1 envelope from internal/core — all
// live generations plus epoch bookkeeping) prefixed by the service's
// configuration fingerprint. The fingerprint is load-bearing: a Windowed
// restore adopts whatever sketch sizes the payload carries, so restoring
// into a server configured differently would not fail — it would silently
// rotate fresh generations of the wrong shape forever after. Refusing a
// mismatched fingerprint up front turns that silent divergence into a
// startup error naming both configurations.
//
// Layout (all integers uvarint unless noted):
//
//	magic "CSP2"
//	fingerprint: method byte ('R' FreeRS, 'B' FreeBS),
//	             memoryBits, shards, generations, seed
//	walSeq, epochEdges
//	per shard: payload length, payload
//	crc32-IEEE of everything before it (4 bytes big-endian)
//
// walSeq is the newest WAL sequence number this checkpoint covers (0 when
// the WAL is disabled or empty): on restart, replay applies only records
// above it, and a successful checkpoint truncates the log through it.
// epochEdges is the number of edges logged to the WAL during the current
// (unfinished) epoch at the moment of the cut — the baseline replay needs
// to cross-check rotation records against. The envelope magic moved from
// CSP1 to CSP2 when these fields were added; the service has no deployed
// CSP1 spools to migrate, so an old magic is simply a corrupt-checkpoint
// error.
//
// Files are written through the atomic-write helper, so a crash mid-write
// leaves the previous complete checkpoint in place; the trailing CRC
// additionally rejects any file corrupted at rest.
//
// Retention: the newest checkpoint is always current.ckpt, and every write
// also leaves a sequence-numbered history entry (ckpt-<seq>.ckpt, a hard
// link to the same bytes — zero extra data written, with an independent
// copy as the fallback on filesystems without hard links). After each
// successful write, history entries beyond the newest Config.Retain are
// deleted, so the spool holds a bounded short history instead of either a
// single rollback-less file or an unbounded pile. Restore prefers
// current.ckpt and falls back to the newest history entry if only the
// pointer file is missing; a checkpoint that is present but corrupt stays a
// startup error — silently skipping to an older one would un-notice data
// loss.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	streamcard "repro"
	"repro/internal/atomicfile"
)

const (
	spoolMagic = "CSP2"

	// spoolHistPrefix/Suffix frame history file names: ckpt-<seq>.ckpt,
	// zero-padded so lexical and numeric order agree.
	spoolHistPrefix = "ckpt-"
	spoolHistSuffix = ".ckpt"
)

var errSpoolCorrupt = errors.New("server: corrupt spool checkpoint")

func methodByte(method string) byte {
	if method == "freebs" {
		return 'B'
	}
	return 'R'
}

// fingerprint encodes the service identity: the spool header opens with
// it, and every WAL segment carries it, so a checkpoint or log written by a
// differently configured service is refused instead of restored into
// sketches of the wrong shape.
func (s *Server) fingerprint() []byte {
	fp := []byte{methodByte(s.cfg.Method)}
	for _, v := range []uint64{uint64(s.cfg.MemoryBits), uint64(s.cfg.Shards),
		uint64(s.cfg.Generations), s.cfg.Seed} {
		fp = binary.AppendUvarint(fp, v)
	}
	return fp
}

// marshalSpool serializes the full service state from a full cut
// (Sharded.FullSnapshot): an epoch-consistent frozen cut that keeps the
// array words, so no sketch lock is needed while the (potentially large)
// payloads are marshaled. Shard i of the view is s.wins[i] by
// construction (NewSharded's build returns s.wins[i] for shard i).
// walSeq/epochEdges tie the snapshot to a WAL position (both 0 when the
// WAL is off); with the WAL on, the caller captured view and position
// under one quiesce cut so they describe the same instant.
func (s *Server) marshalSpool(view *streamcard.ShardedView, walSeq, epochEdges uint64) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(spoolMagic)
	buf.Write(s.fingerprint())
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	putUvarint(walSeq)
	putUvarint(epochEdges)
	for i := 0; i < view.NumShards(); i++ {
		w, ok := view.ShardView(i).(*streamcard.Windowed)
		if !ok {
			return nil, fmt.Errorf("server: checkpointing shard %d: not a windowed view", i)
		}
		payload, err := w.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("server: checkpointing shard %d: %w", i, err)
		}
		putUvarint(uint64(len(payload)))
		buf.Write(payload)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// unmarshalSpool validates data and restores it into the freshly built
// stack, returning the checkpoint's WAL position (walSeq) and in-epoch
// logged-edge baseline. Called before the server takes traffic; on error
// the stack keeps whatever state it had (a fresh build: empty).
func (s *Server) unmarshalSpool(data []byte) (walSeq, epochEdges uint64, err error) {
	if len(data) < len(spoolMagic)+1+4 {
		return 0, 0, fmt.Errorf("%w: %d bytes", errSpoolCorrupt, len(data))
	}
	body, crc := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return 0, 0, fmt.Errorf("%w: checksum mismatch", errSpoolCorrupt)
	}
	if string(body[:len(spoolMagic)]) != spoolMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", errSpoolCorrupt, body[:len(spoolMagic)])
	}
	r := bytes.NewReader(body[len(spoolMagic):])
	method, err := r.ReadByte()
	if err != nil {
		return 0, 0, fmt.Errorf("%w: truncated header", errSpoolCorrupt)
	}
	readUvarint := func(field string) (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("%w: truncated %s", errSpoolCorrupt, field)
		}
		return v, nil
	}
	mbits, err := readUvarint("memoryBits")
	if err != nil {
		return 0, 0, err
	}
	shards, err := readUvarint("shards")
	if err != nil {
		return 0, 0, err
	}
	gens, err := readUvarint("generations")
	if err != nil {
		return 0, 0, err
	}
	seed, err := readUvarint("seed")
	if err != nil {
		return 0, 0, err
	}
	if walSeq, err = readUvarint("walSeq"); err != nil {
		return 0, 0, err
	}
	if epochEdges, err = readUvarint("epochEdges"); err != nil {
		return 0, 0, err
	}
	if method != methodByte(s.cfg.Method) ||
		mbits != uint64(s.cfg.MemoryBits) ||
		shards != uint64(s.cfg.Shards) ||
		gens != uint64(s.cfg.Generations) ||
		seed != s.cfg.Seed {
		return 0, 0, fmt.Errorf("server: checkpoint of a method=%c mbits=%d shards=%d gens=%d seed=%d service "+
			"cannot restore into method=%c mbits=%d shards=%d gens=%d seed=%d — "+
			"match the configuration or move the spool aside",
			method, mbits, shards, gens, seed,
			methodByte(s.cfg.Method), s.cfg.MemoryBits, s.cfg.Shards, s.cfg.Generations, s.cfg.Seed)
	}
	for i := 0; i < int(shards); i++ {
		n, err := readUvarint("shard payload length")
		if err != nil {
			return 0, 0, err
		}
		if n > uint64(r.Len()) {
			return 0, 0, fmt.Errorf("%w: shard %d claims %d bytes, %d remain", errSpoolCorrupt, i, n, r.Len())
		}
		payload := make([]byte, n)
		if _, err := r.Read(payload); err != nil {
			return 0, 0, fmt.Errorf("%w: shard %d payload", errSpoolCorrupt, i)
		}
		if err := s.wins[i].UnmarshalBinary(payload); err != nil {
			return 0, 0, fmt.Errorf("server: restoring shard %d: %w", i, err)
		}
	}
	if r.Len() != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", errSpoolCorrupt, r.Len())
	}
	return walSeq, epochEdges, nil
}

// writeSpool persists one checkpoint atomically.
func writeSpool(path string, data []byte) error {
	return atomicfile.WriteFile(path, data, os.FileMode(0o644))
}

// histPath returns the history file name for sequence number seq.
func (s *Server) histPath(seq uint64) string {
	return filepath.Join(s.cfg.SpoolDir, fmt.Sprintf("%s%012d%s", spoolHistPrefix, seq, spoolHistSuffix))
}

// listHist returns the spool's history checkpoints, oldest first. Files
// whose names merely look similar are ignored rather than deleted later.
func (s *Server) listHist() (seqs []uint64, err error) {
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, spoolHistPrefix) || !strings.HasSuffix(name, spoolHistSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, spoolHistPrefix), spoolHistSuffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// linkFile hard-links a spool history entry to current.ckpt's bytes. It is
// a variable so tests can force the no-hardlink fallback below: several
// real filesystems (FAT/exFAT mounts, some network and FUSE filesystems,
// object-store gateways) reject link(2), and the fallback must preserve
// the retention contract byte for byte on them.
var linkFile = os.Link

// saveSpool writes one checkpoint: current.ckpt atomically, a history
// entry for it, then pruning down to the newest Retain history files. The
// caller (Checkpoint) holds ckptMu, so sequence numbers and renames cannot
// interleave.
func (s *Server) saveSpool(data []byte) error {
	if err := writeSpool(s.spoolPath(), data); err != nil {
		return err
	}
	s.ckptSeq++
	hist := s.histPath(s.ckptSeq)
	if err := linkFile(s.spoolPath(), hist); err != nil {
		// Hard links can fail on filesystems without link support; fall
		// back to an independent atomic copy (tmp+fsync+rename via
		// internal/atomicfile) rather than losing the history entry.
		if err := writeSpool(hist, data); err != nil {
			return fmt.Errorf("server: spool history: %w", err)
		}
	}
	return s.pruneSpool()
}

// pruneSpool deletes history checkpoints beyond the newest Retain. Only
// runs after a successful write, so a failing disk never eats the history
// it still has.
func (s *Server) pruneSpool() error {
	seqs, err := s.listHist()
	if err != nil {
		return fmt.Errorf("server: spool prune: %w", err)
	}
	for len(seqs) > s.cfg.Retain {
		if err := os.Remove(s.histPath(seqs[0])); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: spool prune: %w", err)
		}
		seqs = seqs[1:]
	}
	return nil
}
