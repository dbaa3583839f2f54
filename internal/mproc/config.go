// Package mproc runs a crew deployment as real OS processes: one hub process
// owning the authoritative transport.Network (message counts, fault policy,
// quiescence) and one child process per agent, joined by the hub wire
// protocol (transport.RemoteHub / transport.ChildConn).
//
// The hub side (Cluster) is a workload.Target and a faults.NodeHooks: the
// standard drivers and the chaos injector work unchanged, except that
// HaltNode delivers a genuine SIGKILL to an agent's process and RestartNode
// re-executes it — recovery is rebuild-from-WFDB across a real process
// boundary, not a map reset inside one address space.
package mproc

import (
	"encoding/json"
	"fmt"
	"os"

	"crew/internal/analysis"
	"crew/internal/model"
	"crew/internal/workload"
)

// EnvChildConfig is the environment variable carrying a child process's JSON
// configuration. A process that finds it set is an agent host, not a hub.
const EnvChildConfig = "CREW_AGENTHOST"

// FrontendNode is the hub-local node name workflow interfaces originate from
// and WorkflowDone notifications return to.
const FrontendNode = "frontend"

// ChildConfig is everything an agent process needs to join a cluster. It
// deliberately carries the workload *recipe* (parameters + seed) rather than
// the generated artifacts: workload generation is deterministic, so hub and
// children rebuild identical libraries and programs independently.
type ChildConfig struct {
	// Name is the agent node this process claims at the hub.
	Name string `json:"name"`
	// Network/Addr locate the hub listener ("unix" or "tcp").
	Network string `json:"network"`
	Addr    string `json:"addr"`
	// Agents is the full deployment agent list (sorted order matters: it
	// defines the coordination home agent everywhere). WorkflowDone
	// notifications go to FrontendNode.
	Agents []string `json:"agents"`
	// DBPath is the agent's persistent WFDB file; empty gives the agent no
	// database at all (no rows, no archive, no recovery across a restart).
	DBPath string `json:"dbPath,omitempty"`
	// DisableOCR mirrors distributed.Config.
	DisableOCR bool `json:"disableOCR,omitempty"`
	// ReportExec has the agent report its programs' execution windows as
	// EXEC frames. The cluster sets it when it was given an OnExec observer;
	// with none, nobody reads them.
	ReportExec bool `json:"reportExec,omitempty"`
	// Workload + Seed regenerate a synthetic workload's library and
	// programs. LawsPath mode (crewrun) resolves them from a LAWS file
	// instead and leaves Workload nil.
	Workload *analysis.Parameters `json:"workload,omitempty"`
	Seed     int64                `json:"seed,omitempty"`
	// LawsPath names a LAWS source file for LAWS-defined deployments; the
	// child-process entry point compiles it and registers its programs
	// (mproc itself cannot: program code is not serializable).
	LawsPath string `json:"lawsPath,omitempty"`
	// FailStep optionally names a step whose program reports a logical
	// failure once (crewrun's synthetic-failure switch).
	FailStep string `json:"failStep,omitempty"`
}

// Env encodes the config as the environment variable entry to append to a
// child's environment.
func (c *ChildConfig) Env() (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("mproc: encode child config: %w", err)
	}
	return EnvChildConfig + "=" + string(b), nil
}

// ChildConfigFromEnv decodes the current process's child configuration.
// It returns (nil, nil) when the variable is unset: this process is a hub.
func ChildConfigFromEnv() (*ChildConfig, error) {
	raw := os.Getenv(EnvChildConfig)
	if raw == "" {
		return nil, nil
	}
	var c ChildConfig
	if err := json.Unmarshal([]byte(raw), &c); err != nil {
		return nil, fmt.Errorf("mproc: decode %s: %w", EnvChildConfig, err)
	}
	return &c, nil
}

// ResolveWorkload regenerates the library and programs for a
// parameter-driven child. LAWS-driven children resolve their own (the hub
// cannot ship program code across a process boundary).
func (c *ChildConfig) ResolveWorkload() (*model.Library, *model.Registry, error) {
	if c.Workload == nil {
		return nil, nil, fmt.Errorf("mproc: child %s has no workload parameters", c.Name)
	}
	w, err := workload.Generate(*c.Workload, c.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("mproc: regenerate workload: %w", err)
	}
	return w.Library, w.Programs, nil
}
