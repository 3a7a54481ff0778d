package bcl

import (
	"fmt"

	"bcl/internal/sim"
)

// OpenJob starts a job on the cluster: for each rank i in order, it
// spawns a process on node place[i] and opens that process's port with
// opts. A node may appear more than once to host several ranks. Port
// i belongs to rank i.
func (s *System) OpenJob(p *sim.Proc, place []int, opts Options) ([]*Port, error) {
	ports := make([]*Port, 0, len(place))
	for i, n := range place {
		nd := s.Cluster.Nodes[n]
		pt, err := s.Open(p, nd, nd.Kernel.Spawn(), opts)
		if err != nil {
			return nil, fmt.Errorf("bcl: open port %q for rank %d on node %d: %w", opts.Label, i, n, err)
		}
		ports = append(ports, pt)
	}
	return ports, nil
}

// Boot runs OpenJob in a process named "setup" and advances the clock
// to until, an absolute time. Callers pick their own horizon: a fault
// schedule installed afterwards counts from the time boot ends. If the
// job is not open by until, Boot reports how many of its ports were.
func (s *System) Boot(place []int, opts Options, until sim.Time) ([]*Port, error) {
	env := s.Cluster.Env
	before := len(s.ports)
	var ports []*Port
	var err error
	done := false
	env.Go("setup", func(p *sim.Proc) {
		ports, err = s.OpenJob(p, place, opts)
		done = true
	})
	env.RunUntil(until)
	if !done {
		return nil, fmt.Errorf("bcl: opened %d of %d ports by %d ns", len(s.ports)-before, len(place), until)
	}
	return ports, err
}

// Addrs returns the addresses of ports, in order.
func Addrs(ports []*Port) []Addr {
	addrs := make([]Addr, len(ports))
	for i, pt := range ports {
		addrs[i] = pt.Addr()
	}
	return addrs
}
