package actor

import (
	"testing"

	"crew/internal/metrics"
	"crew/internal/transport"
)

// BenchmarkPingPong: two actors on one in-process network bounce one message;
// a hop is a send, the receiver's wake and its turn. Reports ns per hop.
func BenchmarkPingPong(b *testing.B) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	actor := func(name string) *Actor {
		a, err := New(net, name, nil, b.Logf)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	ping, pong := actor("ping"), actor("pong")
	hops, done := 0, make(chan struct{}) // hops is ping's: two per ping turn
	ping.Launch(func(transport.Message) {
		if hops += 2; hops >= b.N {
			close(done)
			return
		}
		ping.Send("pong", metrics.Normal, "Ball", nil)
	}, nil)
	pong.Launch(func(transport.Message) { pong.Send("ping", metrics.Normal, "Ball", nil) }, nil)
	b.ResetTimer()
	ping.Do(func() { ping.Send("pong", metrics.Normal, "Ball", nil) })
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(hops, 1)), "ns/hop")
	net.Close()
	ping.Stop()
	pong.Stop()
}
