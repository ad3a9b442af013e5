package bench

import (
	"io"
	"reflect"
	"testing"
	"time"

	"canary/internal/api"
	"canary/internal/server"
)

// TestFleetWorkerConfig pins the canaryd command line of the fleet and
// chaos workers, field by field, to the server configuration the
// experiments measure under: single-threaded analyses, one job at a
// time, a batch-sized queue, the address as identity, and the server's
// own defaults for everything else.
func TestFleetWorkerConfig(t *testing.T) {
	const addr = "127.0.0.1:7001"
	self := "http://" + addr
	members := []string{self, "http://127.0.0.1:7002"}
	base := server.Config{
		MaxConcurrent: 1,
		QueueDepth:    api.MaxBatchItems,
		Options:       fleetOptions(),
		NodeID:        addr,
	}
	static := base
	static.Peers = members
	static.PeerSelf = self
	dynamic := base
	dynamic.Join = members
	dynamic.Advertise = self
	dynamic.GossipInterval = 150 * time.Millisecond
	dynamic.CacheDir = "w0"

	for _, tc := range []struct {
		name   string
		worker fleetWorker
		want   server.Config
	}{
		{"static", fleetWorker{addr: addr, peers: members}, static},
		{"gossip", fleetWorker{addr: addr, join: members, gossip: 150 * time.Millisecond, dir: "w0"}, dynamic},
	} {
		fl, err := server.ParseFlags(tc.worker.args(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fl.Addr != addr {
			t.Errorf("%s: listens on %q, want %q", tc.name, fl.Addr, addr)
		}
		if !reflect.DeepEqual(fl.Config, tc.want) {
			t.Errorf("%s: config\n got %+v\nwant %+v", tc.name, fl.Config, tc.want)
		}
	}
}
