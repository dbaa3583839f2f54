package mproc

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"crew/internal/distributed"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/store"
	"crew/internal/transport"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// The agents' sweep period. A bystander process holding a replica of a
// finished instance drops it within two: the hub's relay timer writes a DONE
// no delivery carried within one, and the agent's next sweep reads it. The
// tests below look once that much has passed, with one period more for a
// loaded machine, since a look kills the processes.
const (
	sweepPeriod = 100 * time.Millisecond
	retireBound = 2*sweepPeriod + sweepPeriod
)

// instanceRows returns the instance rows in an agent's database file. Only
// call it once the agent's process is dead.
func instanceRows(t *testing.T, dir, agent string) []string {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, agent+".agdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return wfdb.New(st).InstanceKeys()
}

// runOne runs one instance of the workload's first class to its commit.
func runOne(t *testing.T, cl *Cluster, w *workload.Workload, i int) (string, int) {
	t.Helper()
	wf := w.Library.Names()[0]
	id, err := cl.Start(wf, w.Inputs(i))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Wait(wf, id, 30*time.Second); err != nil || st != wfdb.Committed {
		t.Fatalf("%s.%d: Wait = (%v, %v), want Committed", wf, id, st, err)
	}
	return wf, id
}

// settleAndLook waits until each respawned agent process has handled a
// message sent now, so it is connected and has read what the hub wrote
// before, then waits retireBound, kills every agent process and fails for
// each instance row left in a database file. The message has no payload: the
// agents log it as unhandled. The others are sent nothing, so what they drop
// they drop on their own.
func settleAndLook(t *testing.T, cl *Cluster, w *workload.Workload, dir string, respawned ...string) {
	t.Helper()
	for _, name := range respawned {
		if err := cl.Network().Send(transport.Message{From: FrontendNode, To: name, Kind: "Noop"}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatalf("the respawned agents never handled a message: %v", err)
	}
	time.Sleep(retireBound)
	cl.Close()
	for _, name := range w.Agents {
		if rows := instanceRows(t, dir, name); len(rows) > 0 {
			t.Errorf("agent %s still holds instance rows %v", name, rows)
		}
	}
}

// TestKilledCoordinatorLeavesNoReplica kills an instance's coordination agent
// as soon as the hub has heard the instance commit, and respawns it, ten
// times over. The bystanders learn of each commit from the hub, not from the
// agent that was killed, and drop their replicas: no agent's file holds an
// instance row afterwards. Nothing the killed agent queued for a later turn
// survives it.
func TestKilledCoordinatorLeavesNoReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cl := startCluster(t, p, w, dir, metrics.NewCollector(), nil)
	var killed []string
	for i := 0; i < 10; i++ {
		wf, id := runOne(t, cl, w, i)
		to, err := distributed.CoordinatorFor(w.Library, w.Agents, wf, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl.HaltNode(to)
		cl.RestartNode(to)
		killed = append(killed, to)
	}
	settleAndLook(t, cl, w, dir, killed...)
}

// TestRespawnedBystanderDropsFinishedReplica: an agent process killed while it
// held a replica of a running instance, and respawned after the instance
// committed, finds the instance's row in its file. The instance's
// coordination agent is killed as the commit is heard and respawned too, so
// nothing it had queued survives; nobody was connected to tell the bystander
// while it was down. Its HELLO names the row, the DONE the hub answers with
// completes the instance, and the agent drops the replica. The row is written
// into the file while the process is down, as a kill before the commit
// leaves it: a real kill racing the instance may come before it was written.
func TestRespawnedBystanderDropsFinishedReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cl := startCluster(t, p, w, dir, metrics.NewCollector(), nil)
	wf, id := runOne(t, cl, w, 0)
	to, err := distributed.CoordinatorFor(w.Library, w.Agents, wf, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	bystander := w.Agents[0]
	if bystander == to {
		bystander = w.Agents[1]
	}
	cl.HaltNode(to)
	cl.HaltNode(bystander)
	st, err := store.Open(filepath.Join(dir, bystander+".agdb"))
	if err != nil {
		t.Fatal(err)
	}
	row := wfdb.NewInstance(wf, id, w.Inputs(0))
	row.Coordinator = to
	if err := wfdb.New(st).SaveInstance(row); err != nil {
		t.Fatal(err)
	}
	st.Close()
	cl.RestartNode(to)
	cl.RestartNode(bystander)
	settleAndLook(t, cl, w, dir, to, bystander)
}

// TestIdleBystanderDropsFinishedReplica runs one instance and nothing after
// it. Most bystanders are sent nothing once the instance commits, so no
// delivery carries the DONE to them: the hub's relay timer writes it, and
// each drops its replica at its next sweep.
func TestIdleBystanderDropsFinishedReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cl := startCluster(t, p, w, dir, metrics.NewCollector(), nil)
	runOne(t, cl, w, 0)
	settleAndLook(t, cl, w, dir)
}

// TestNestedInstanceReachesFrontEnd builds the agents of a deployment as
// RunChild builds them, in this process, and runs an instance whose nested
// step is executed by an agent other than its coordination agent, which
// alone knows the front end's address from the WorkflowStart. The front end
// still hears of the nested child's end, so the hub can relay it to the
// bystanders of the child.
func TestNestedInstanceReachesFrontEnd(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	lib := model.NewLibrary()
	lib.Add(model.NewSchema("Child").Step("C1", "p", model.WithAgents("a3")).MustBuild())
	lib.Add(model.NewSchema("Parent").
		Step("P1", "p", model.WithAgents("a1")).
		NestedStep("N", "Child", model.WithAgents("a2")).
		Seq("P1", "N").
		MustBuild())
	agents := []string{"a1", "a2", "a3"}
	n := transport.NewNetwork(transport.NetworkConfig{})
	fe := n.MustRegister(FrontendNode)
	var built []*distributed.Agent
	defer func() {
		n.Close()
		for _, ag := range built {
			ag.Stop()
		}
	}()
	for _, name := range agents {
		ag, err := newAgent(&ChildConfig{Name: name, Agents: agents}, nil, new(itable.Terminal), lib, reg, n, n.Alive)
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, ag)
	}
	to, err := distributed.CoordinatorFor(lib, agents, "Parent", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if to == "a2" {
		t.Fatal("the nested step's executor coordinates the instance: the test needs another")
	}
	if err := n.Send(distributed.StartMessage(FrontendNode, to, "Parent", 1, nil, FrontendNode)); err != nil {
		t.Fatal(err)
	}
	heard := map[string]wfdb.Status{}
	note := func(m transport.Message) {
		if d, ok := m.Payload.(*distributed.WorkflowDone); ok {
			heard[wfdb.InstanceKeyOf(d.Workflow, d.Instance)] = d.Status
		}
	}
	for timeout := time.After(30 * time.Second); len(heard) < 2; {
		select {
		case m := <-fe.Inbox():
			if env, ok := m.Payload.(*transport.Envelope); ok {
				for _, lm := range env.Msgs {
					note(lm)
				}
				continue
			}
			note(m)
		case <-timeout:
			t.Fatalf("the front end heard %v, want Parent.1 and its nested child", heard)
		}
	}
	if heard["Parent.1"] != wfdb.Committed || heard["Child.1001"] != wfdb.Committed {
		t.Errorf("the front end heard %v, want Parent.1 and Child.1001 committed", heard)
	}
}
