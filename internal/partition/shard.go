package partition

import "fmt"

// ShardMap assigns graph partitions to the boards of a simulated SSD array.
// Each board owns a shard — the set of partitions whose subgraphs live on
// its flash — and a walk is always processed by the board owning its current
// partition; crossing a shard boundary sends the walk over the inter-board
// fabric (see internal/core's array layer).
//
// Partitions are striped round-robin across boards, the same policy
// Placement uses for blocks within a board: consecutive partitions land on
// consecutive boards, spreading both capacity and load. When a board dies,
// Reassign redistributes its partitions round-robin over the survivors so
// every partition always has exactly one live owner.
type ShardMap struct {
	numBoards int
	boardOf   []int32 // partition -> owning board
}

// NewShardMap stripes numPartitions partitions across boards. A board count
// larger than the partition count is allowed: the excess boards simply own
// empty shards (they still participate in the fabric and can inherit
// partitions on failover).
func NewShardMap(numPartitions, boards int) (*ShardMap, error) {
	if boards <= 0 {
		return nil, fmt.Errorf("partition: shard map needs at least one board, got %d", boards)
	}
	if numPartitions < 0 {
		return nil, fmt.Errorf("partition: negative partition count %d", numPartitions)
	}
	m := &ShardMap{numBoards: boards, boardOf: make([]int32, numPartitions)}
	for p := range m.boardOf {
		m.boardOf[p] = int32(p % boards)
	}
	return m, nil
}

// NumPartitions reports the mapped partition count.
func (m *ShardMap) NumPartitions() int { return len(m.boardOf) }

// BoardOf reports the board owning partition p.
func (m *ShardMap) BoardOf(p int) int { return int(m.boardOf[p]) }

// PartitionsOn returns the partitions owned by board b, in ascending order.
func (m *ShardMap) PartitionsOn(b int) []int {
	var out []int
	for p, owner := range m.boardOf {
		if int(owner) == b {
			out = append(out, p)
		}
	}
	return out
}

// Reassign moves every partition owned by dead onto the alive boards,
// round-robin in partition order, and reports how many partitions moved.
// The alive list must be non-empty and must not contain dead; the
// redistribution is deterministic given the same map state and arguments.
func (m *ShardMap) Reassign(dead int, alive []int) (int, error) {
	if len(alive) == 0 {
		return 0, fmt.Errorf("partition: reassign from board %d: no boards left alive", dead)
	}
	for _, b := range alive {
		if b == dead {
			return 0, fmt.Errorf("partition: reassign: board %d is both dead and alive", dead)
		}
		if b < 0 || b >= m.numBoards {
			return 0, fmt.Errorf("partition: reassign: alive board %d outside [0,%d)", b, m.numBoards)
		}
	}
	moved := 0
	for p, owner := range m.boardOf {
		if int(owner) != dead {
			continue
		}
		m.boardOf[p] = int32(alive[moved%len(alive)])
		moved++
	}
	return moved, nil
}

// Owners returns a copy of the partition->board assignment (for snapshots).
func (m *ShardMap) Owners() []int32 { return append([]int32(nil), m.boardOf...) }

// SetOwners overwrites the assignment from a snapshot taken with Owners.
func (m *ShardMap) SetOwners(owners []int32) error {
	if len(owners) != len(m.boardOf) {
		return fmt.Errorf("partition: shard map has %d partitions, snapshot has %d", len(m.boardOf), len(owners))
	}
	for p, b := range owners {
		if b < 0 || int(b) >= m.numBoards {
			return fmt.Errorf("partition: snapshot owner %d of partition %d outside [0,%d)", b, p, m.numBoards)
		}
	}
	copy(m.boardOf, owners)
	return nil
}
