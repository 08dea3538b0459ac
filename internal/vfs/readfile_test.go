package vfs

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// memInfo is a fs.FileInfo reporting a chosen size.
type memInfo int64

func (i memInfo) Name() string       { return "mem" }
func (i memInfo) Size() int64        { return int64(i) }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() interface{}   { return nil }

// memFile is a read-only in-memory File. Its Stat reports statSize (or
// fails with statErr), whatever the content's real length, and its
// Read fails with readErr once the offset reaches failAt (when readErr
// is set), handing back the bytes before failAt first.
type memFile struct {
	*bytes.Reader
	statSize int64
	statErr  error
	failAt   int64
	readErr  error
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.readErr != nil {
		off := f.Size() - int64(f.Len())
		if off >= f.failAt {
			return 0, f.readErr
		}
		if rest := f.failAt - off; int64(len(p)) > rest {
			p = p[:rest]
		}
	}
	return f.Reader.Read(p)
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	if f.statErr != nil {
		return nil, f.statErr
	}
	return memInfo(f.statSize), nil
}

func (f *memFile) Write([]byte) (int, error)          { return 0, errors.ErrUnsupported }
func (f *memFile) WriteAt([]byte, int64) (int, error) { return 0, errors.ErrUnsupported }
func (f *memFile) Close() error                       { return nil }
func (f *memFile) Name() string                       { return "mem" }
func (f *memFile) Sync() error                        { return nil }
func (f *memFile) Truncate(int64) error               { return errors.ErrUnsupported }

// memFS opens every name as a fresh memFile built by open; the other
// FS methods are unused by ReadFile and left nil.
type memFS struct {
	FS
	open func() *memFile
}

func (m memFS) Open(string) (File, error) { return m.open(), nil }

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestReadFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := ReadFile(OS{}, path)
	if err != nil || len(raw) != 0 {
		t.Fatalf("empty file: %d bytes, %v", len(raw), err)
	}
}

// TestReadFileStatDisagrees: the content is read whole whether Stat
// reports the right size, too small a size (the growth path), zero,
// too large a size, or fails.
func TestReadFileStatDisagrees(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 5000, 1 << 16} {
		want := pattern(n)
		for _, tc := range []struct {
			name     string
			statSize int64
			statErr  error
		}{
			{"exact", int64(n), nil},
			{"short", int64(n / 3), nil},
			{"zero", 0, nil},
			{"long", int64(n) + 100, nil},
			{"stat error", 0, errors.New("stat failed")},
		} {
			fsys := memFS{open: func() *memFile {
				return &memFile{Reader: bytes.NewReader(want), statSize: tc.statSize, statErr: tc.statErr}
			}}
			got, err := ReadFile(fsys, "f")
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, tc.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d %s: read %d bytes, want %d", n, tc.name, len(got), n)
			}
		}
	}
}

// TestReadFileReadError: a read error is returned unchanged, whether it
// hits the first Read or one past the start of the file.
func TestReadFileReadError(t *testing.T) {
	boom := &fs.PathError{Op: "read", Path: "f", Err: errors.New("EIO")}
	content := pattern(10000)
	for _, tc := range []struct {
		name     string
		failAt   int64
		statSize int64
	}{
		{"offset 0", 0, 10000},
		{"mid-file", 4000, 10000},
		{"mid-file past a short Stat", 7000, 3000},
	} {
		fsys := memFS{open: func() *memFile {
			return &memFile{Reader: bytes.NewReader(content), statSize: tc.statSize, failAt: tc.failAt, readErr: boom}
		}}
		got, err := ReadFile(fsys, "f")
		if err != boom {
			t.Fatalf("%s: got (%d bytes, %v), want the read error unchanged", tc.name, len(got), err)
		}
		if got != nil {
			t.Fatalf("%s: failed read returned %d bytes", tc.name, len(got))
		}
	}
}

// TestReadFileAllocs pins the sized read: an N-byte file costs one
// N+1-byte buffer plus the open, not the doubling copies of a buffer
// grown from 512 bytes. N+1 = 64 KiB is a size class, so the bound
// leaves only the open's and Stat's own small allocations as slack.
func TestReadFileAllocs(t *testing.T) {
	const n = 1<<16 - 1
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, pattern(n), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(OS{}, path); err != nil {
		t.Fatal(err)
	}
	// The least of several rounds discounts allocations made meanwhile
	// by the runtime or the race detector, which only ever add.
	const reps, rounds = 20, 5
	least := uint64(1 << 62)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			if _, err := ReadFile(OS{}, path); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/reps)
	}
	if per := least; per > n+512 {
		t.Fatalf("reading a %d-byte file allocated %d bytes, want at most %d", n, per, n+512)
	}
}
