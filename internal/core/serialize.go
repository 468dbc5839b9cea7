package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitarray"
	"repro/internal/regarray"
	"repro/internal/usertab"
)

// Serialization lets a long-running monitor checkpoint its full estimator
// state — shared array, per-user running estimates, and the incremental
// bookkeeping — and resume after a restart with bit-identical behaviour.
//
// Format (little-endian): magic, version byte, fixed header fields, the
// underlying array's own binary form (length-prefixed), then the per-user
// estimate entries as a varint count followed by (uint64 user, float64
// bits) pairs.
//
// The trailing digit of the magic is the envelope version. Version 2
// ("FBS2"/"FRS2", the only version written) guarantees the estimate
// entries are in ascending user order, so equal logical states always
// serialize to equal bytes. Version 1 payloads — written before the flat
// estimate table, with entries in Go map iteration order — still decode:
// the entry layout is identical and estimates are summable credits whose
// total is stored explicitly, so order carries no information.

const (
	freeBSMagic       = "FBS2"
	freeRSMagic       = "FRS2"
	freeBSMagicLegacy = "FBS1"
	freeRSMagicLegacy = "FRS1"
	windowMagic       = "WIN1"
)

// MaxWindowGenerations bounds the generation count a window checkpoint may
// declare; anything larger is a corrupt or hostile payload, not a plausible
// ring (a generation is a whole sketch — thousands of them would dwarf any
// real deployment). A window with more generations cannot be checkpointed.
const MaxWindowGenerations = 1 << 16

// RestoreFreeBS decodes a MarshalBinary payload directly into a fresh
// FreeBS — the restore path for checkpoints, which unlike UnmarshalBinary on
// an existing sketch never needs a placeholder sketch to overwrite.
func RestoreFreeBS(data []byte) (*FreeBS, error) {
	f := new(FreeBS)
	if err := f.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return f, nil
}

// RestoreFreeRS decodes a MarshalBinary payload directly into a fresh
// FreeRS; see RestoreFreeBS.
func RestoreFreeRS(data []byte) (*FreeRS, error) {
	f := new(FreeRS)
	if err := f.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return f, nil
}

// MarshalBinary serializes the complete FreeBS state.
func (f *FreeBS) MarshalBinary() ([]byte, error) {
	arr, err := f.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 64+len(arr)+f.est.Len()*16)
	out = append(out, freeBSMagic...)
	out = append(out, boolByte(f.postUpdateQ))
	out = binary.LittleEndian.AppendUint64(out, f.seed)
	return f.appendTail(out, arr), nil
}

// UnmarshalBinary restores state serialized by MarshalBinary, current or
// legacy envelope version (see the package comment on versioning). The
// receiver is replaced only on success.
func (f *FreeBS) UnmarshalBinary(data []byte) error {
	body, err := checkMagicAny(data, freeBSMagic, freeBSMagicLegacy)
	if err != nil {
		return err
	}
	if len(body) < 1+8 {
		return errors.New("core: FreeBS payload truncated")
	}
	bits := new(bitarray.BitArray)
	sk, err := readTail(body[9:], "FreeBS", bits)
	if err != nil {
		return err
	}
	sk.postUpdateQ = body[0] != 0
	*f = FreeBS{sketch: sk, bits: bits, seed: binary.LittleEndian.Uint64(body[1:])}
	return nil
}

// MarshalBinary serializes the complete FreeRS state.
func (f *FreeRS) MarshalBinary() ([]byte, error) {
	arr, err := f.regs.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 64+len(arr)+f.est.Len()*16)
	out = append(out, freeRSMagic...)
	out = append(out, boolByte(f.postUpdateQ), f.width)
	out = binary.LittleEndian.AppendUint64(out, f.seedIdx)
	out = binary.LittleEndian.AppendUint64(out, f.seedRank)
	return f.appendTail(out, arr), nil
}

// UnmarshalBinary restores state serialized by MarshalBinary, current or
// legacy envelope version (see the package comment on versioning). The
// receiver is replaced only on success.
func (f *FreeRS) UnmarshalBinary(data []byte) error {
	body, err := checkMagicAny(data, freeRSMagic, freeRSMagicLegacy)
	if err != nil {
		return err
	}
	if len(body) < 2+8+8 {
		return errors.New("core: FreeRS payload truncated")
	}
	width := body[1]
	regs := new(regarray.Array)
	sk, err := readTail(body[18:], "FreeRS", regs)
	if err != nil {
		return err
	}
	if regs.Width() != width {
		return errors.New("core: FreeRS width mismatch")
	}
	if !regs.Exact() {
		return errors.New("core: FreeRS requires an exactly maintained array")
	}
	sk.postUpdateQ = body[0] != 0
	*f = FreeRS{
		sketch:   sk,
		regs:     regs,
		seedIdx:  binary.LittleEndian.Uint64(body[2:]),
		seedRank: binary.LittleEndian.Uint64(body[10:]),
		width:    width,
	}
	return nil
}

// windowLive returns the live-generation count a k-generation ring holds at
// the given epoch: epochs fill the ring one generation at a time until all k
// slots are live. Overflow-safe for any epoch.
func windowLive(k int, epoch uint64) uint64 {
	if epoch < uint64(k)-1 {
		return epoch + 1
	}
	return uint64(k)
}

// MarshalWindow wraps the live generations of a k-generation window — each
// already serialized by its own MarshalBinary — together with the epoch
// bookkeeping (epoch number, edges absorbed by the current epoch) into one
// versioned payload. The live count is not stored: it is a function of k and
// epoch (windowLive), so the decoder validates it for free.
//
// Format (little-endian): magic "WIN1", k as uint32, epoch as uint64, edges
// as uint64, then each generation newest-first as a uvarint length prefix
// plus its payload.
func MarshalWindow(k int, epoch, edges uint64, gens [][]byte) ([]byte, error) {
	if k < 2 || k > MaxWindowGenerations {
		return nil, fmt.Errorf("core: window generation count %d out of range [2, %d]", k, MaxWindowGenerations)
	}
	if uint64(len(gens)) != windowLive(k, epoch) {
		return nil, fmt.Errorf("core: %d live generations inconsistent with epoch %d of a %d-generation window",
			len(gens), epoch, k)
	}
	size := len(windowMagic) + 4 + 8 + 8
	for _, g := range gens {
		size += binary.MaxVarintLen64 + len(g)
	}
	out := make([]byte, 0, size)
	out = append(out, windowMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(k))
	out = binary.LittleEndian.AppendUint64(out, epoch)
	out = binary.LittleEndian.AppendUint64(out, edges)
	for _, g := range gens {
		out = binary.AppendUvarint(out, uint64(len(g)))
		out = append(out, g...)
	}
	return out, nil
}

// UnmarshalWindow validates and splits a MarshalWindow payload. The returned
// generation payloads alias data (newest first); decoding each into a sketch
// is the caller's job, since the envelope does not know the estimator type.
func UnmarshalWindow(data []byte) (k int, epoch, edges uint64, gens [][]byte, err error) {
	body, err := checkMagic(data, windowMagic)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if len(body) < 4+8+8 {
		return 0, 0, 0, nil, errors.New("core: window payload truncated")
	}
	k = int(binary.LittleEndian.Uint32(body))
	epoch = binary.LittleEndian.Uint64(body[4:])
	edges = binary.LittleEndian.Uint64(body[12:])
	body = body[20:]
	if k < 2 || k > MaxWindowGenerations {
		return 0, 0, 0, nil, fmt.Errorf("core: window generation count %d out of range [2, %d]", k, MaxWindowGenerations)
	}
	live := windowLive(k, epoch)
	gens = make([][]byte, 0, live)
	for i := uint64(0); i < live; i++ {
		glen, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, 0, 0, nil, fmt.Errorf("core: window generation %d: bad length prefix", i)
		}
		body = body[n:]
		if glen > uint64(len(body)) {
			return 0, 0, 0, nil, fmt.Errorf("core: window generation %d: length %d exceeds remaining %d bytes", i, glen, len(body))
		}
		gens = append(gens, body[:glen])
		body = body[glen:]
	}
	if len(body) != 0 {
		return 0, 0, 0, nil, fmt.Errorf("core: window payload has %d trailing bytes", len(body))
	}
	return k, epoch, edges, gens, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func checkMagic(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("core: bad magic (want %s)", magic)
	}
	return data[len(magic):], nil
}

// checkMagicAny accepts any of the given magics (the current envelope
// version first, then the legacy versions still decoded).
func checkMagicAny(data []byte, magics ...string) ([]byte, error) {
	for _, m := range magics {
		if body, err := checkMagic(data, m); err == nil {
			return body, nil
		}
	}
	return nil, fmt.Errorf("core: bad magic (want %s)", magics[0])
}

// appendEstimates writes the estimate entries in ascending user order — the
// version-2 determinism guarantee: equal logical states serialize to equal
// bytes, whatever insertion history shaped the table's layout.
func appendEstimates(out []byte, est *usertab.Table) []byte {
	out = binary.AppendUvarint(out, uint64(est.Len()))
	est.SortedRange(func(u uint64, e float64) {
		out = binary.LittleEndian.AppendUint64(out, u)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e))
	})
	return out
}

// readEstimates decodes the entries section into a pre-sized table. Entry
// order is not required or checked (legacy payloads are unordered); on
// duplicate users the last entry wins, as it did for the map this replaces.
func readEstimates(data []byte) (*usertab.Table, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errors.New("core: bad estimate count")
	}
	data = data[n:]
	// Divide rather than multiply: count is attacker-controlled and count*16
	// can wrap around to a value that matches a short payload's length.
	if count != uint64(len(data))/16 || len(data)%16 != 0 {
		return nil, fmt.Errorf("core: estimate payload %d bytes, want %d entries", len(data), count)
	}
	est := usertab.NewWithCapacity(int(count))
	for i := uint64(0); i < count; i++ {
		u := binary.LittleEndian.Uint64(data[i*16:])
		e := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
		est.Set(u, e)
	}
	return est, nil
}
