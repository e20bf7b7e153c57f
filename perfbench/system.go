package main

import (
	"fmt"
	"sync"

	"ncl/internal/and"
	"ncl/internal/controller"
	"ncl/internal/core"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/runtime"
)

// system is one running deployment as the workload drivers see it. The
// measured runs use core.Deployment; the capture run (fixtures.go) wires
// the same components by hand so it can tap every packet.
type system struct {
	art   *core.Artifact
	dep   *core.Deployment // nil for the capture system
	hosts map[string]*runtime.Host
	ctrl  *controller.Controller
	fab   *netsim.Fabric
	sw    *netsim.SwitchNode // the overlay's one switch, "s1"
	reg   *obs.Registry
	stop  func()
}

// deploy runs Artifact.Deploy and wraps the result.
func deploy(art *core.Artifact, faults netsim.Faults) (*system, error) {
	dep, err := art.Deploy(faults)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return &system{
		art: art, dep: dep, hosts: dep.Hosts, ctrl: dep.Controller,
		fab: dep.Fabric, sw: dep.Switches["s1"], reg: dep.Obs, stop: dep.Stop,
	}, nil
}

// tap records every packet on a host link, in the order the fabric
// carries it. It is the capture system's host transport (a
// netsim.BatchSender that logs and forwards to the real fabric) and the
// wrapper around each host node on the receiving side.
type tap struct {
	fab  *netsim.Fabric
	mu   sync.Mutex
	pkts []capturedPkt
}

// capturedPkt is one packet seen on a host link: from and to are the
// link's ends, toHost tells the direction.
type capturedPkt struct {
	from, to string
	toHost   bool
	pkt      netsim.Packet
}

func (t *tap) log(from, to string, toHost bool, p *netsim.Packet) {
	c := capturedPkt{from: from, to: to, toHost: toHost, pkt: *p}
	c.pkt.Data = append([]byte(nil), p.Data...)
	t.mu.Lock()
	t.pkts = append(t.pkts, c)
	t.mu.Unlock()
}

func (t *tap) Send(from, to string, pkt *netsim.Packet) error {
	t.log(from, to, false, pkt)
	return t.fab.Send(from, to, pkt)
}

func (t *tap) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	for i, p := range pkts {
		t.log(from, tos[i], false, p)
	}
	return t.fab.SendBatch(from, tos, pkts)
}

func (t *tap) Network() *and.Network { return t.fab.Network() }

// take returns the packets logged so far and starts a new log.
func (t *tap) take() []capturedPkt {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pkts
	t.pkts = nil
	return p
}

// tapHost logs what the fabric delivers to a host before the host
// runtime sees it.
type tapHost struct {
	*runtime.Host
	tap *tap
}

func (h tapHost) Receive(f netsim.Sender, pkt *netsim.Packet, from string) {
	h.tap.log(from, h.Label(), true, pkt)
	h.Host.Receive(f, pkt, from)
}

// deployTapped wires the artifact the way Artifact.Deploy does (one
// switch node per AND switch, one runtime host per AND host, programs
// installed through the controller) but sends and receives every host
// packet through a tap.
func deployTapped(art *core.Artifact, faults netsim.Faults) (*system, *tap, error) {
	reg := obs.NewRegistry()
	cfg := art.AppConfig()
	cfg.Obs = reg
	fab := netsim.New(art.Net, faults)
	fab.SetObs(reg)
	ctrl := controller.New(art.Net)
	t := &tap{fab: fab}
	sys := &system{art: art, hosts: map[string]*runtime.Host{}, ctrl: ctrl, fab: fab, reg: reg}
	sys.stop = func() {
		for _, h := range sys.hosts {
			h.Close()
		}
		fab.Stop()
	}
	fail := func(err error) (*system, *tap, error) {
		sys.stop()
		return nil, nil, fmt.Errorf("capture deploy: %w", err)
	}
	for _, sw := range art.Net.Switches() {
		sn := netsim.NewSwitchNode(sw.Label, art.Target)
		label := sw.Label
		sn.SetDepthSource(func() int { return fab.InboxDepth(label) })
		if err := fab.Attach(sn); err != nil {
			return fail(err)
		}
		if err := ctrl.AttachSwitch(sn); err != nil {
			return fail(err)
		}
		sys.sw = sn
	}
	ctrl.SetObs(reg)
	next, via := ctrl.HostRoutingAll()
	for _, hn := range art.Net.Hosts() {
		h := runtime.NewHost(hn.Label, hn.ID, hn.Role, cfg, t, nil)
		h.SetRoutes(next[hn.Label], via[hn.Label])
		sys.hosts[hn.Label] = h
		if err := fab.Attach(tapHost{h, t}); err != nil {
			return fail(err)
		}
	}
	if err := ctrl.InstallAll(art.Programs); err != nil {
		return fail(err)
	}
	if err := fab.Start(); err != nil {
		return fail(err)
	}
	return sys, t, nil
}

// Control-plane calls, each bracketed by a span.

func ctrlWrite(tr *spanLog, sys *system, global string, idx int, v uint64) error {
	tr.begin("controller.CtrlWrite")
	err := sys.ctrl.CtrlWrite(global, idx, v)
	tr.end()
	if err != nil {
		return fmt.Errorf("ctrl write %s[%d]: %w", global, idx, err)
	}
	return nil
}

func mapInsert(tr *spanLog, sys *system, name string, key, val uint64) error {
	tr.begin("controller.MapInsert")
	err := sys.ctrl.MapInsert("s1", name, key, val)
	tr.end()
	if err != nil {
		return fmt.Errorf("map insert %s[%d]: %w", name, key, err)
	}
	return nil
}

func readRegister(tr *spanLog, sys *system, global string, idx int) (uint64, error) {
	tr.begin("controller.ReadRegister")
	v, err := sys.ctrl.ReadRegister("s1", global, idx)
	tr.end()
	if err != nil {
		return 0, fmt.Errorf("read register %s[%d]: %w", global, idx, err)
	}
	return v, nil
}
