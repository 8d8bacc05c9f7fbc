package main

import (
	"fmt"
	"io"
	"sync"

	"odbgc/internal/storage/disk"
)

// memFS is an in-memory disk.FS. The durable workloads run the disk
// backend on it: the WAL, checksums, commits, checkpoints and recovery all
// execute, but a Sync costs nothing, so the figures measure the program
// rather than the latency of a shared disk (METRICS.md gives the numbers
// that ruled the disk out).
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memFile)} }

func (fs *memFS) Open(name string) (disk.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[name]
	if f == nil {
		f = &memFile{}
		fs.files[name] = f
	}
	return f, nil
}

func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.files[name] == nil {
		return fmt.Errorf("memfs: remove %s: no such file", name)
	}
	delete(fs.files, name)
	return nil
}

// memFile is one file's bytes. Like the disk backend that uses it, it is
// not safe for concurrent use.
type memFile struct {
	data []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.resize(off + int64(len(p)))
	return copy(f.data[off:], p), nil
}

// resize grows the file with zeros to at least size bytes.
func (f *memFile) resize(size int64) {
	if size <= int64(len(f.data)) {
		return
	}
	if size > int64(cap(f.data)) {
		grown := make([]byte, len(f.data), max(size, 2*int64(cap(f.data))))
		copy(grown, f.data)
		f.data = grown
	}
	old := len(f.data)
	f.data = f.data[:size]
	clear(f.data[old:])
}

func (f *memFile) Size() (int64, error) { return int64(len(f.data)), nil }

func (f *memFile) Truncate(size int64) error {
	if size < int64(len(f.data)) {
		f.data = f.data[:size]
	}
	f.resize(size)
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
