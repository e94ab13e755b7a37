// Application-aware memcached proxy (§5.4): an NF parses L7 memcached get
// requests, shards keys across backends with a hash, rewrites the packet's
// destination, and sends it straight out — zero-copy, no kernel sockets,
// one-sided (responses bypass the proxy entirely). The proxy is a native
// batch NF (SDK v2): the engine hands it whole request bursts, so the
// per-packet path is a header rewrite and one decision write, nothing
// more.
//
//	go run ./examples/memcached
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

const svcProxy flowtable.ServiceID = 1

func main() {
	backends := []nfs.Backend{
		{IP: packet.IPv4(10, 50, 0, 1), Port: 11211},
		{IP: packet.IPv4(10, 50, 0, 2), Port: 11211},
		{IP: packet.IPv4(10, 50, 0, 3), Port: 11211},
	}
	proxy := &nfs.MemcachedProxy{Servers: backends, OutPort: 1}

	host := dataplane.NewHost(dataplane.Config{PoolSize: 2048, TXThreads: 1})
	host.BindIngress(0)
	if _, err := host.AddNF(svcProxy, proxy, 0); err != nil {
		log.Fatal(err)
	}
	// One rule: everything arriving on port 0 goes to the proxy; the
	// proxy emits rewritten requests itself (VerbOut).
	if _, err := host.Table().Add(flowtable.Rule{
		Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcProxy)},
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := host.Table().Add(flowtable.Rule{
		Scope: svcProxy, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)},
	}); err != nil {
		log.Fatal(err)
	}

	perBackend := map[packet.IP]int{}
	host.BindDefault(func(port int, data []byte, _ *dataplane.Desc) {
		if v, err := packet.Parse(data); err == nil {
			perBackend[v.DstIP()]++
		}
	})
	if err := host.Start(); err != nil {
		log.Fatal(err)
	}
	defer host.Stop()

	// Offer 20k get requests with Zipf-popular keys.
	factory := traffic.NewFactory()
	keys := traffic.NewZipfKeys(7, 1.2, 10000)
	client := packet.IPv4(10, 9, 0, 1)
	const n = 20000
	startT := time.Now()
	for i := 0; i < n; i++ {
		frame, err := traffic.MemcachedRequest(factory, client, uint16(4000+i%1000), packet.IPv4(10, 40, 0, 1), keys.Next())
		if err != nil {
			log.Fatal(err)
		}
		for errors.Is(host.Ingest(0, frame), dataplane.ErrIngestRefused) {
			time.Sleep(5 * time.Microsecond)
		}
	}
	host.WaitIdle(10 * time.Second)
	elapsed := time.Since(startT)

	fmt.Printf("proxied %d requests in %v (%.0f req/s end to end, single core)\n",
		proxy.Proxied(), elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Printf("malformed: %d\n", proxy.Malformed())
	fmt.Println("backend shard distribution:")
	for _, b := range backends {
		fmt.Printf("  %s: %d\n", b.IP, perBackend[b.IP])
	}
}
