package frame

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCodecRoundTripAndLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, 8, nil); err != nil {
		t.Fatal(err)
	}
	typ, first, err := Read(&buf)
	if err != nil || typ != 7 || string(first) != "first" {
		t.Fatalf("Read = %d %q %v", typ, first, err)
	}
	typ, p, err := Read(&buf)
	if err != nil || typ != 8 || len(p) != 0 {
		t.Fatalf("empty frame: %d %q %v", typ, p, err)
	}
	// A payload survives later reads: each Read allocates its own buffer.
	if string(first) != "first" {
		t.Fatalf("payload overwritten: %q", first)
	}
	if err := Write(&buf, 1, make([]byte, MaxLen+1)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized write: %v", err)
	}
	if _, _, err := Read(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 1})); err == nil || !strings.Contains(err.Error(), "oversized frame") {
		t.Fatalf("oversized header: %v", err)
	}
}

// TestCloseWaitsForServe: Close drops live connections and returns only
// after every serve call has; a closed listener refuses to Listen again.
func TestCloseWaitsForServe(t *testing.T) {
	var serving, done atomic.Int32
	l := NewListener("test", func(br *bufio.Reader, bw *bufio.Writer) {
		serving.Add(1)
		br.ReadByte() // blocks until Close drops the connection
		done.Add(1)
	})
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	for serving.Load() < 3 {
		runtime.Gosched()
	}
	l.Close()
	if done.Load() != 3 {
		t.Fatalf("Close returned with %d of 3 serve calls finished", done.Load())
	}
	if _, err := l.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "test: listener closed") {
		t.Fatalf("Listen after Close: %v", err)
	}
}
