//go:build linux && !mips && !mipsle && !mips64 && !mips64le

package ntp

import "testing"

// TestShardsReusePort: on Linux two shards hold two SO_REUSEPORT
// sockets bound to one address, and say so.
func TestShardsReusePort(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock()})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.ListenShards("udp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if !sh.ReusePort() {
		t.Fatal("ReusePort() = false on Linux")
	}
	a, b := sh.pcs[0], sh.pcs[1]
	if a == b {
		t.Fatal("both shards share one socket")
	}
	if a.LocalAddr().String() != b.LocalAddr().String() {
		t.Fatalf("shards bound %v and %v", a.LocalAddr(), b.LocalAddr())
	}
}
