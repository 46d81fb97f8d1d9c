package hdfs

import "fmt"

// Placement assigns block replicas to datanodes the way HDFS's default
// policy does within a single rack (the paper's clusters are single-rack,
// which is why it lowers the replication factor to 2): the first replica on
// the writer's node, the remaining ones on distinct other nodes.
type Placement struct {
	nodes       int
	replication int
}

// NewPlacement creates a placement over n datanodes with the given
// replication factor.
func NewPlacement(n, replication int) (*Placement, error) {
	if n < 1 {
		return nil, fmt.Errorf("hdfs: placement over %d nodes", n)
	}
	if replication < 1 {
		return nil, fmt.Errorf("hdfs: replication %d", replication)
	}
	return &Placement{nodes: n, replication: replication}, nil
}

// EffectiveReplication returns min(replication, nodes): with fewer nodes
// than the factor, HDFS stores one replica per node.
func (p *Placement) EffectiveReplication() int {
	if p.replication > p.nodes {
		return p.nodes
	}
	return p.replication
}

// Place assigns replica locations for block index b written from node
// writer. Replicas always land on distinct nodes. The assignment is
// deterministic: the first replica is local to the writer and the others
// round-robin from the block index, which spreads load evenly.
func (p *Placement) Place(b, writer int) []int {
	if writer < 0 || writer >= p.nodes {
		panic(fmt.Sprintf("hdfs: writer node %d of %d", writer, p.nodes))
	}
	repl := p.EffectiveReplication()
	locs := make([]int, 0, repl)
	locs = append(locs, writer)
	// Stride the off-node replicas by the block's "row" so that writers
	// cycling round-robin still spread second replicas over every node.
	next := (writer + 1 + b/p.nodes) % p.nodes
	for len(locs) < repl {
		if !contains(locs, next) {
			locs = append(locs, next)
		}
		next = (next + 1) % p.nodes
	}
	return locs
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
