package topology

import "fmt"

// Partition is the one-band split of a torus that network.NewSharded
// takes. simbench/trace.go is its only caller; ROADMAP items 8–9 delete
// it.
type Partition struct{}

// PartitionRows returns the one-band partition of t. It panics for any
// other band count: multi-band sharding was removed. simbench/trace.go
// is its only caller; ROADMAP items 8–9 delete it.
func PartitionRows(t Torus, k int) *Partition {
	if k != 1 {
		panic(fmt.Sprintf("topology: shard count %d, want 1", k))
	}
	return &Partition{}
}

// Shards returns the number of bands, 1.
func (p *Partition) Shards() int { return 1 }
