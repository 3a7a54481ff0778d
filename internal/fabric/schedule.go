package fabric

import (
	"fmt"

	"bcl/internal/sim"
)

// Schedule is one fault phase as data: packet rules, outage and
// gray-failure windows, and firmware crashes. (*cluster.Cluster).Install
// applies a whole schedule; Fabric.Install takes the rules and windows
// (a crash needs a cluster's NICs). Every probabilistic rule draws from
// the simulation's seeded RNG, so one seed replays one schedule bit for
// bit.
type Schedule struct {
	Rules   []Rule
	Windows []Window
	Crashes []Crash
}

// Rule acts on data packets (KindData). Its trigger is exactly one of K
// (the K-th matching packet), Every (every Every-th) or P (each matching
// packet with probability P, one env RNG draw per packet). Every rule
// counts and draws on every packet it matches, whatever the others
// decide; a drop outranks a duplicate. A Corrupt rule matches only
// packets with a payload: a counted trigger inverts the first byte, a
// drawn one flips one random bit (a second draw). A rule on every rail
// keeps one counter across all of them.
type Rule struct {
	K, Every int
	P        float64
	Do       Verdict // Drop, Duplicate or Corrupt
	Rail     Rail
}

// Window takes Node's fabric attachment, or the whole fabric for
// AllNodes, out over the virtual-time window [From, To). With Slow 0 it
// is an outage: every packet entering or leaving the component is lost.
// With Slow ≥ 2 it is a gray failure: nothing is lost, but packets pay
// Slow times the serialization and hop latency, sampled at injection.
type Window struct {
	Node     int
	Rail     Rail
	From, To sim.Time
	Slow     int
}

// AllNodes makes a Window cover the whole fabric (a switch or rail
// failure).
const AllNodes = -1

// Crash kills Node's NIC firmware at virtual time At
// ((*nic.NIC).CrashAt): the kernel watchdog reboots it and replays the
// journal.
type Crash struct {
	Node int
	At   sim.Time
}

// Rail picks the rail of a multi-rail fabric a rule or window applies
// to (hetero: 0 Myrinet, 1 mesh). The zero Rail is every rail; a
// single-rail fabric has only OnRail(0).
type Rail struct {
	r   int
	set bool
}

// OnRail selects rail r alone.
func OnRail(r int) Rail { return Rail{r, true} }

func (rl Rail) on(r int) bool { return !rl.set || rl.r == r }

// PerRail checks s against a fabric of nodes nodes and rails rails, and
// splits it by rail: hooks[r] runs, in list order, the rules on rail r
// and those on every rail (nil if no rule reaches rail r, so the rail
// copies no payload), and windows[r] are the windows on rail r. It
// panics, naming the entry, on anything the fabric cannot run, before
// anything is armed.
func (s Schedule) PerRail(nodes, rails int) (hooks []Fault, windows [][]Window) {
	s.check(nodes, rails)
	hooks, windows = make([]Fault, rails), make([][]Window, rails)
	states := make([]rule, len(s.Rules))
	for i, r := range s.Rules {
		states[i].Rule = r
	}
	for r := range hooks {
		var mine []*rule
		for i := range states {
			if states[i].Rail.on(r) {
				mine = append(mine, &states[i])
			}
		}
		if mine != nil {
			hooks[r] = hook(mine)
		}
		for _, w := range s.Windows {
			if w.Rail.on(r) {
				w.Rail = Rail{}
				windows[r] = append(windows[r], w)
			}
		}
	}
	return hooks, windows
}

func (s Schedule) check(nodes, rails int) {
	bad := func(what string, i int, e any, why string, args ...any) {
		panic(fmt.Sprintf("fabric: schedule %s %d %+v: %s", what, i, e, fmt.Sprintf(why, args...)))
	}
	if len(s.Crashes) > 0 {
		bad("crash", 0, s.Crashes[0], "a crash needs a cluster: install the schedule with (*cluster.Cluster).Install")
	}
	railOK := func(rl Rail) bool { return !rl.set || uint(rl.r) < uint(rails) }
	for i, r := range s.Rules {
		switch {
		case r.K < 0 || r.Every < 0 || r.P < 0 || r.P > 1:
			bad("rule", i, r, "K and Every count from 1 and P is a probability in [0, 1]")
		case r.K*r.Every != 0 || (r.K+r.Every > 0) == (r.P > 0): // not exactly one trigger
			bad("rule", i, r, "needs exactly one trigger: K ≥ 1, Every ≥ 1 or P in (0, 1]")
		case r.Do != Drop && r.Do != Duplicate && r.Do != Corrupt:
			bad("rule", i, r, "Do must be Drop, Duplicate or Corrupt")
		case !railOK(r.Rail):
			bad("rule", i, r, "rail %d is not on a %d-rail fabric", r.Rail.r, rails)
		}
	}
	for i, w := range s.Windows {
		switch {
		case w.Node != AllNodes && uint(w.Node) >= uint(nodes):
			bad("window", i, w, "node %d is not on a %d-node fabric", w.Node, nodes)
		case !railOK(w.Rail):
			bad("window", i, w, "rail %d is not on a %d-rail fabric", w.Rail.r, rails)
		case w.From >= w.To:
			bad("window", i, w, "From >= To: the window is empty")
		case w.Slow != 0 && w.Slow < 2:
			bad("window", i, w, "slow factor %d is below 2 (0 takes the component down)", w.Slow)
		}
	}
}

// covers reports whether the window takes node out at time t.
func (w Window) covers(node int, t sim.Time) bool {
	return (w.Node == AllNodes || w.Node == node) && t >= w.From && t < w.To
}

// rule is a Rule with its count of matching packets.
type rule struct {
	Rule
	n int
}

// fires counts or draws for one packet and reports whether the rule
// acts on it.
func (r *rule) fires(env *sim.Env, pkt *Packet) bool {
	if pkt.Kind != KindData || r.Do == Corrupt && len(pkt.Payload) == 0 {
		return false
	}
	if r.P > 0 {
		return env.Rand().Bool(r.P)
	}
	r.n++
	if r.K > 0 {
		return r.n == r.K
	}
	return r.n%r.Every == 0
}

// hook runs rules over every packet as one Fault.
func hook(rules []*rule) Fault {
	return func(env *sim.Env, pkt *Packet) Verdict {
		v := Deliver
		for _, r := range rules {
			if !r.fires(env, pkt) {
				continue
			}
			switch r.Do {
			case Drop:
				v = Drop
			case Duplicate:
				if v == Deliver {
					v = Duplicate
				}
			case Corrupt:
				if r.P > 0 {
					bit := env.Rand().Intn(len(pkt.Payload) * 8)
					pkt.Payload[bit/8] ^= 1 << (bit % 8)
				} else {
					pkt.Payload[0] ^= 0xff
				}
			}
		}
		return v
	}
}
