// Package checkpoint persists mid-run simulation state durably, so a
// long run killed at any instant resumes from the last completed
// checkpoint instead of cycle zero (bounded-loss recovery).
//
// On-disk format (all integers little-endian):
//
//	magic "rowckpt1" (8 bytes)
//	header frame: uint32 length | JSON header | uint32 CRC32-C
//	body frame:   uint32 length | JSON sim.SysSnap | uint32 CRC32-C
//
// The body is format version 2: each SRAM array (L1I, L1, L2, L3) is
// stored sparsely, as its length plus one record per valid line (see
// sram.Snap), and the per-slot ROB/LQ/SB/AQ and directory-entry
// records omit their zero fields. A warmed 8-core checkpoint is a few
// megabytes; version 1 stored every line of every array and was about
// 31 MB. Load refuses a version-1 file with a *MismatchError, like any
// other version.
//
// The header carries the format version, the simulated cycle, and a
// content key — a hash over everything that determines the run
// (configuration, workload parameters, seed, code revision; see
// experiments.ContentKey). Load refuses a checkpoint whose key does
// not match the resuming run with a *MismatchError: resuming foreign
// state would not crash, it would silently produce wrong results,
// which is worse.
//
// Durability discipline: Save writes to a temporary file, fsyncs it,
// rotates the current checkpoint to the ".prev" slot, and renames the
// temporary into place (then fsyncs the directory). A crash at any
// point leaves either the old checkpoint, the new one, or the old one
// in the ".prev" slot — Load tries the primary first and falls back to
// ".prev", so a torn or half-rotated write costs one checkpoint
// interval of progress, never the run. Load never panics on corrupt
// input: every structural defect is reported as a *CorruptError.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rowsim/internal/sim"
)

// Version is the on-disk format version. Bump on any incompatible
// change to the header or body encoding; Load refuses other versions.
// Version 2 made SRAM snapshots sparse.
const Version = 2

// PrevSuffix is appended to a checkpoint path to name the previous
// (fallback) checkpoint in the keep-last-2 rotation.
const PrevSuffix = ".prev"

// maxFrame bounds a frame length read from disk, so a corrupt length
// field cannot drive a multi-gigabyte allocation.
const maxFrame = 1 << 30

var magic = [8]byte{'r', 'o', 'w', 'c', 'k', 'p', 't', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the checkpoint header: everything Load verifies before it
// touches the body.
type Meta struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Cycle   uint64 `json:"cycle"`
}

// MismatchError reports a structurally valid checkpoint that belongs
// to a different run: wrong content key (different config, workload,
// seed or code revision) or wrong format version.
type MismatchError struct {
	Path  string
	Field string // "content key" or "version"
	Want  string
	Got   string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint %s: %s mismatch: checkpoint has %q, this run wants %q", e.Path, e.Field, e.Got, e.Want)
}

// CorruptError reports a checkpoint file that failed structural
// validation: truncated, bit-flipped (CRC), or undecodable.
type CorruptError struct {
	Path  string
	Cause error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint %s: corrupt: %v", e.Path, e.Cause)
}

func (e *CorruptError) Unwrap() error { return e.Cause }

func writeFrame(w io.Writer, payload []byte) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(n[:], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(n[:])
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, fmt.Errorf("frame length: %w", err)
	}
	ln := binary.LittleEndian.Uint32(n[:])
	if ln > maxFrame {
		return nil, fmt.Errorf("frame length %d exceeds limit", ln)
	}
	payload := make([]byte, ln)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("frame payload: %w", err)
	}
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, fmt.Errorf("frame checksum: %w", err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(n[:]); got != want {
		return nil, fmt.Errorf("frame checksum 0x%08x, computed 0x%08x", want, got)
	}
	return payload, nil
}

// Encode serializes a checkpoint to its byte representation (the exact
// content Save writes). Split out so tests and in-memory consumers can
// frame without touching the filesystem.
func Encode(key string, snap *sim.SysSnap) ([]byte, error) {
	hdr, err := json.Marshal(Meta{Version: Version, Key: key, Cycle: snap.Cycle})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(magic) + len(hdr) + len(body) + 16)
	buf.Write(magic[:])
	if err := writeFrame(&buf, hdr); err != nil {
		return nil, err
	}
	if err := writeFrame(&buf, body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses checkpoint bytes, verifying structure and, when key is
// non-empty, the content key. Structural defects return *CorruptError;
// a valid checkpoint for a different run returns *MismatchError. The
// path parameter only labels errors.
func Decode(path, key string, data []byte) (*sim.SysSnap, Meta, error) {
	r := bytes.NewReader(data)
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("magic: %w", err)}
	}
	if m != magic {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("bad magic %q", m[:])}
	}
	hdrB, err := readFrame(r)
	if err != nil {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("header: %w", err)}
	}
	var meta Meta
	if err := json.Unmarshal(hdrB, &meta); err != nil {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("header: %w", err)}
	}
	if meta.Version != Version {
		return nil, meta, &MismatchError{Path: path, Field: "version", Want: fmt.Sprint(Version), Got: fmt.Sprint(meta.Version)}
	}
	if key != "" && meta.Key != key {
		return nil, meta, &MismatchError{Path: path, Field: "content key", Want: key, Got: meta.Key}
	}
	bodyB, err := readFrame(r)
	if err != nil {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("body: %w", err)}
	}
	if r.Len() != 0 {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("%d trailing bytes after body frame", r.Len())}
	}
	snap := new(sim.SysSnap)
	if err := json.Unmarshal(bodyB, snap); err != nil {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("body: %w", err)}
	}
	if snap.Cycle != meta.Cycle {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("header cycle %d, body cycle %d", meta.Cycle, snap.Cycle)}
	}
	return snap, meta, nil
}

// Save durably writes snap as the checkpoint at path, rotating any
// existing checkpoint to path+PrevSuffix. The write is atomic
// (temp+fsync+rename): a crash during Save never damages the existing
// checkpoint lineage.
func Save(path, key string, snap *sim.SysSnap) error {
	data, err := Encode(key, snap)
	if err != nil {
		return fmt.Errorf("checkpoint %s: encode: %w", path, err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// Rotate: the checkpoint being replaced becomes the fallback. Both
	// renames are atomic; a crash between them leaves only the ".prev"
	// slot populated, which Load handles.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+PrevSuffix); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so the renames within it are durable.
// Best-effort: some filesystems refuse directory fsync, and the
// in-process guarantees do not depend on it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// loadFile reads and decodes one checkpoint file.
func loadFile(path, key string) (*sim.SysSnap, Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Meta{}, err
	}
	return Decode(path, key, data)
}

// Load returns the newest valid checkpoint for path. The primary file
// is tried first; if it is missing or corrupt (torn write, bit rot),
// the ".prev" fallback is tried. A checkpoint for a different run
// returns *MismatchError immediately — the fallback shares the
// lineage, so it cannot be the right run either. When neither slot
// holds a loadable checkpoint, the error wraps os.ErrNotExist if no
// file existed, otherwise it reports the primary's corruption.
func Load(path, key string) (*sim.SysSnap, Meta, error) {
	snap, meta, err := loadFile(path, key)
	if err == nil {
		return snap, meta, nil
	}
	var mismatch *MismatchError
	if errors.As(err, &mismatch) {
		return nil, meta, err
	}
	snap2, meta2, err2 := loadFile(path+PrevSuffix, key)
	if err2 == nil {
		return snap2, meta2, nil
	}
	if errors.As(err2, &mismatch) {
		return nil, meta2, err2
	}
	if os.IsNotExist(err) && os.IsNotExist(err2) {
		return nil, Meta{}, fmt.Errorf("checkpoint %s: %w", path, os.ErrNotExist)
	}
	if os.IsNotExist(err) {
		err = err2 // primary absent: the fallback's defect is the story
	}
	return nil, Meta{}, err
}

// Saver adapts Save to the sim.WithCheckpoint callback signature.
func Saver(path, key string) func(cycle uint64, snap *sim.SysSnap) error {
	return func(_ uint64, snap *sim.SysSnap) error {
		return Save(path, key, snap)
	}
}

// Resume restores the newest valid checkpoint for path into s.
// ok reports whether a checkpoint was restored; (0, false, nil) means
// no checkpoint exists and the run should start fresh. Any other
// failure — corruption of both slots, key mismatch, a body that does
// not fit the system (shape, ring sizes, SRAM line indexes) — is
// returned as-is for the caller to surface; a body that does not fit
// leaves s unmodified.
func Resume(s *sim.System, path, key string) (cycle uint64, ok bool, err error) {
	snap, meta, err := Load(path, key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, err
	}
	if err := s.RestoreSnap(snap); err != nil {
		return 0, false, err
	}
	return meta.Cycle, true, nil
}

// ResumeLenient restores the newest valid checkpoint into s with the
// recovery policy the harnesses want: a corrupt lineage (both slots
// damaged) is treated as absent — resuming from cycle zero loses
// bounded progress, while refusing to run loses the whole job — and is
// reported through warn so the caller can log it. A *MismatchError or
// a restore shape error stays a hard error: that state belongs to a
// different run, and executing it would be silently wrong.
func ResumeLenient(s *sim.System, path, key string) (cycle uint64, ok bool, warn, err error) {
	cycle, ok, err = Resume(s, path, key)
	var ce *CorruptError
	if errors.As(err, &ce) {
		return 0, false, err, nil
	}
	return cycle, ok, nil, err
}

// Remove deletes every file of the checkpoint lineage at path (the
// primary, the ".prev" fallback, and any abandoned temporary).
// Missing files are fine; the first real filesystem error is returned.
func Remove(path string) error {
	var first error
	for _, p := range []string{path, path + PrevSuffix, path + ".tmp"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}
