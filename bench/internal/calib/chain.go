package calib

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// NominalTrip is what one trip through the chain takes on an
// undisturbed host of the class the benchmark was sized on. Frozen.
const NominalTrip = 75 * time.Microsecond

const (
	chainHops = 4
	// chainGap spaces the chain's messages: five hundred a second, two
	// thousand wake-ups beside the hundreds of thousands of the program.
	chainGap = 2 * time.Millisecond
)

// chain relays a small message over chainHops loopback TCP connections,
// one goroutine per hop; the last takes the trip's time.
type chain struct {
	first net.Conn
	conns []net.Conn
	wg    sync.WaitGroup
	last  int64 // generator goroutine only

	mu sync.Mutex
	at []int64 // when each finished trip was sent, unix ns, ascending
	ns []int32
}

// StartChain sets the chain up; Close must follow. Without it
// WakeSlowdown reports 1.
func (p *Probe) StartChain() error {
	ch := &chain{at: make([]int64, 0, 1<<15), ns: make([]int32, 0, 1<<15)}
	var clients, servers []net.Conn
	for i := 0; i < chainHops; i++ {
		c, s, err := loopbackPair()
		if err != nil {
			ch.close()
			return fmt.Errorf("calib: %w", err)
		}
		ch.conns = append(ch.conns, c, s)
		clients, servers = append(clients, c), append(servers, s)
	}
	ch.first = clients[0]
	for i := range servers {
		var next net.Conn
		if i+1 < len(clients) {
			next = clients[i+1]
		}
		ch.wg.Add(1)
		go ch.relay(servers[i], next) // ends when close shuts its connection
	}
	p.chain = ch
	return nil
}

func loopbackPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, nil, err
	}
	if server, err = ln.Accept(); err != nil {
		client.Close()
		return nil, nil, err
	}
	return client, server, nil
}

// relay passes each message on, or — the last hop — records its trip.
func (ch *chain) relay(in, out net.Conn) {
	defer ch.wg.Done()
	buf := make([]byte, 16)
	for {
		if _, err := io.ReadFull(in, buf); err != nil {
			return
		}
		if out != nil {
			if _, err := out.Write(buf); err != nil {
				return
			}
			continue
		}
		now := time.Now().UnixNano()
		sent := int64(binary.LittleEndian.Uint64(buf))
		ch.mu.Lock()
		ch.at = append(ch.at, sent)
		ch.ns = append(ch.ns, int32(min(now-sent, int64(time.Second))))
		ch.mu.Unlock()
	}
}

// send starts one trip unless one started within chainGap of now.
func (ch *chain) send(now int64) {
	if now-ch.last < int64(chainGap) {
		return
	}
	ch.last = now
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(time.Now().UnixNano()))
	_, _ = ch.first.Write(buf[:]) // a lost trip is a missing sample
}

func (ch *chain) close() {
	for _, c := range ch.conns {
		c.Close()
	}
	ch.wg.Wait()
}

// WakeSlowdown is the chain's median trip time over the trips sent in
// [from, to) (unix ns) divided by NominalTrip; 1 without a chain or with
// too few trips.
func (p *Probe) WakeSlowdown(from, to int64) float64 {
	if p.chain == nil {
		return 1
	}
	p.chain.mu.Lock()
	defer p.chain.mu.Unlock()
	return orOne(medianOver(p.chain.at, p.chain.ns, from, to) / float64(NominalTrip))
}

// Close stops the chain, if one was started, and waits for its goroutines.
func (p *Probe) Close() {
	if p.chain != nil {
		p.chain.close()
	}
}
