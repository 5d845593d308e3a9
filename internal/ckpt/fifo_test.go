//go:build linux || darwin || freebsd

package ckpt

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestWriteAtomicNonRegular writes through WriteAtomic to a FIFO that a
// goroutine drains: the bytes must arrive through the pipe, and the
// path must still be the FIFO afterwards, with no temp file left
// beside it. Renaming over the path, the regular-file route, would
// have replaced the FIFO with a regular file.
func TestWriteAtomicNonRegular(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pipe")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		f, err := os.Open(path)
		if err != nil {
			got <- result{err: err}
			return
		}
		defer f.Close()
		data, err := io.ReadAll(f)
		got <- result{data, err}
	}()
	const payload = "through the pipe"
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var r result
	select {
	case r = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the FIFO's reader saw no writer")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if string(r.data) != payload {
		t.Fatalf("reader got %q, want %q", r.data, payload)
	}
	fi, err := os.Lstat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("%s is %v after WriteAtomic, want the FIFO", path, fi.Mode())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after WriteAtomic, want only the FIFO", len(entries))
	}
}
