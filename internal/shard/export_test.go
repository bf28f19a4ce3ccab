package shard

// fillShard exhausts shard i's admission capacity from a test, simulating a
// shard pinned down by slow characterizations; the returned release restores
// the tokens. It lets the saturation path be tested deterministically
// without staging an actually-slow request. It only applies to in-process
// backends.
func (r *Router) fillShard(i int) (release func()) {
	b := r.backends[i].(*EngineBackend)
	taken := 0
	for {
		select {
		case b.admit <- struct{}{}:
			taken++
		default:
			return func() {
				for ; taken > 0; taken-- {
					<-b.admit
				}
			}
		}
	}
}

// FillShard and TestTable expose fillShard and testTable to this
// directory's external tests, which import packages (remote, server) that
// import this one.
func FillShard(r *Router, i int) (release func()) { return r.fillShard(i) }

var TestTable = testTable
