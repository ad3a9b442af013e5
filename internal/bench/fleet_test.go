package bench

import (
	"io"
	"reflect"
	"testing"
	"time"

	"canary/internal/api"
	"canary/internal/fleet"
	"canary/internal/server"
)

// TestFleetWorkerConfig pins the command lines of the fleet and chaos
// processes, field by field, to the configurations the experiments
// measure under. Workers: single-threaded analyses, one job at a time, a
// batch-sized queue, the address as identity, and the server's own
// defaults for everything else. Routers: the configuration each
// experiment used to build in-process — the fleet router with hedging
// off (the binary's default hedges), the chaos router gossip-joined and
// hedging — with the router's own defaults for everything else.
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

	worker := func(args []string) (string, any, error) {
		fl, err := server.ParseFlags(args, io.Discard)
		return fl.Addr, fl.Config, err
	}
	router := func(args []string) (string, any, error) {
		fl, err := fleet.ParseFlags(args, io.Discard)
		return fl.Addr, fl.Config, err
	}
	for _, tc := range []struct {
		name  string
		args  []string
		parse func([]string) (string, any, error)
		addr  string
		want  any
	}{
		{"static worker", fleetWorker{addr: addr, peers: members}.args(), worker, addr, static},
		{"gossip worker", fleetWorker{addr: addr, join: members, gossip: 150 * time.Millisecond, dir: "w0"}.args(), worker, addr, dynamic},
		{"fleet router", routerArgs(fleetRouterConfig(members)), router, "127.0.0.1:0",
			fleet.RouterConfig{Workers: members}},
		{"chaos router", routerArgs(chaosRouterConfig(members)), router, "127.0.0.1:0",
			fleet.RouterConfig{
				Join:           members,
				GossipInterval: 150 * time.Millisecond,
				RetryBackoff:   25 * time.Millisecond,
				Timeout:        8 * time.Second,
				HealthInterval: 500 * time.Millisecond,
				HedgeQuantile:  0.9,
				HedgeMinDelay:  100 * time.Millisecond,
			}},
	} {
		gotAddr, got, err := tc.parse(tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gotAddr != tc.addr {
			t.Errorf("%s: listens on %q, want %q", tc.name, gotAddr, tc.addr)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: config\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
