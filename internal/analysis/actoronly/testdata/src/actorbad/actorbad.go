package actorbad

type endpoint struct{}

func (endpoint) Handle(kind string, h func())  {}
func (endpoint) After(d int, fn func())        {}
func (endpoint) submit(job func())             {}
func (endpoint) OnLeavesChanged(notify func()) {}

type broker struct {
	ep      endpoint
	entries map[string]int
}

// addEntry mutates the subscription table.
//
//vetactive:actoronly
func (b *broker) addEntry(key string) { b.entries[key]++ }

// worker is a fan-out worker: not actor context.
func (b *broker) worker() {
	b.addEntry("k") // want `call to actor-only broker\.addEntry from worker`
}

// spawn launches the mutator on its own goroutine.
func (b *broker) spawn() {
	go b.addEntry("k") // want `go statement launches actor-only broker\.addEntry`
}

// pooled hands actor state mutation to a worker pool.
//
//vetactive:actorloop
func (b *broker) pooled() {
	b.ep.submit(func() {
		b.addEntry("k") // want `call to actor-only broker\.addEntry`
	})
	go func() {
		b.addEntry("k") // want `call to actor-only broker\.addEntry .* \(goroutine\)`
	}()
}

// notified registers a callback that is not an actor-loop registrar.
func (b *broker) notified() {
	b.ep.OnLeavesChanged(func() {
		b.addEntry("k") // want `call to actor-only broker\.addEntry`
	})
}

// deliverLocal hands a message to the node's own handlers through the
// endpoint's loop-confined run queue.
//
//vetactive:actoronly
func (b *broker) deliverLocal(msg string) { b.entries[msg]++ }

type fanoutPool struct{ b *broker }

// run is a fan-out worker's loop: the run queue is not its to touch.
func (p *fanoutPool) run(jobs chan string) {
	for msg := range jobs {
		p.b.deliverLocal(msg) // want `call to actor-only broker\.deliverLocal from run`
	}
}

// handlePub is on the actor loop, the goroutine it starts is not.
//
//vetactive:actorloop
func (b *broker) handlePub(msg string) {
	b.deliverLocal(msg)
	go func() {
		b.deliverLocal(msg) // want `call to actor-only broker\.deliverLocal .* \(goroutine\)`
	}()
}
