package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSilentConnectionClosed dials the daemon's server, sends nothing,
// and expects the server to hang up once the header deadline passes.
func TestSilentConnectionClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(3 * readHeaderTimeout))
	_, err = conn.Read(make([]byte, 1))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("silent connection: read returned %v, want EOF from a server-side close", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("connection closed after %s, before the %s header deadline", waited, readHeaderTimeout)
	}
}
