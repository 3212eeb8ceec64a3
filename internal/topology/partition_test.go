package topology

import "testing"

// TestPartitionRowsRejectsBadCounts pins the one band count left: 1
// builds a one-band partition, and every other count panics.
func TestPartitionRowsRejectsBadCounts(t *testing.T) {
	if got := PartitionRows(NewTorus(4, 4), 1).Shards(); got != 1 {
		t.Fatalf("PartitionRows(t, 1).Shards() = %d, want 1", got)
	}
	for _, k := range []int{0, -1, 2, 4, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			PartitionRows(NewTorus(4, 4), k)
		}()
	}
}
