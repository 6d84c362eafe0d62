package workload

import (
	"fmt"

	"keddah/internal/hadoop"
	"keddah/internal/hadoop/mapreduce"
)

// RunSpec is one workload execution request.
type RunSpec struct {
	// Profile names the workload ("terasort", …).
	Profile string
	// InputBytes sizes the dataset. If the input file does not exist it
	// is ingested first (generating HDFS load traffic).
	InputBytes int64
	// Reducers overrides the profile's sizing rule when > 0.
	Reducers int
	// JobName labels flows; defaults to "<profile><seq>".
	JobName string
	// InputPath overrides the dataset path (default derived from
	// profile + size so equal datasets are ingested once).
	InputPath string
}

// DatasetPath returns the HDFS path the run reads when it runs profile:
// InputPath when set, else one derived from the profile and size.
func (s RunSpec) DatasetPath(profile string) string {
	if s.InputPath != "" {
		return s.InputPath
	}
	return fmt.Sprintf("/data/%s-%d", profile, s.InputBytes)
}

// RunResult aggregates the per-round results of one workload run.
type RunResult struct {
	Spec   RunSpec
	Rounds []mapreduce.Result
}

// TotalDuration sums the submitted→finished span across rounds.
func (r RunResult) TotalDuration() (d int64) {
	for _, round := range r.Rounds {
		d += int64(round.Duration())
	}
	return d
}

// Run schedules the workload on the cluster. Iterative profiles submit
// one MapReduce round after another; every round re-reads the (round-
// specific) input as the real jobs do. done receives the aggregate
// result. Call before Cluster.RunToIdle.
func Run(c *hadoop.Cluster, spec RunSpec, seq int, done func(RunResult)) error {
	prof, err := Get(spec.Profile)
	if err != nil {
		return err
	}
	if spec.JobName == "" {
		spec.JobName = fmt.Sprintf("%s%d", prof.Name, seq)
	}
	spec.InputPath = spec.DatasetPath(prof.Name)
	reducers := spec.Reducers
	if prof.MapOnly {
		reducers = 0
	} else if reducers <= 0 {
		reducers = prof.Reducers(spec.InputBytes, c.RM.TotalSlots())
	}

	result := &RunResult{Spec: spec}

	var runRound func(round int, inputPath string)
	runRound = func(round int, inputPath string) {
		jobCfg := mapreduce.JobConfig{
			Name:               fmt.Sprintf("%s-r%d", spec.JobName, round),
			InputPath:          inputPath,
			OutputPath:         fmt.Sprintf("/out/%s/round%d", spec.JobName, round),
			NumReducers:        reducers,
			MapSelectivity:     prof.MapSelectivity,
			ReduceSelectivity:  prof.ReduceSelectivity,
			OutputReplication:  prof.OutputReplication,
			MapCostSecPerMB:    prof.MapCostSecPerMB,
			ReduceCostSecPerMB: prof.ReduceCostSecPerMB,
		}
		err := c.Submit(jobCfg, func(res mapreduce.Result) {
			result.Rounds = append(result.Rounds, res)
			if round+1 < prof.Rounds {
				// Iterative jobs re-read the original dataset each
				// round (model state travels via the small output).
				runRound(round+1, spec.InputPath)
				return
			}
			if done != nil {
				done(*result)
			}
		})
		if err != nil {
			// Submission failures inside callbacks indicate a broken
			// experiment setup; surface loudly.
			panic(fmt.Sprintf("workload: submit round %d of %s: %v", round, spec.JobName, err))
		}
	}

	startJob := func() { runRound(0, spec.InputPath) }
	if c.FS.Exists(spec.InputPath) {
		// The dataset is already ingested — or another run's ingest is
		// in flight; either way start once it is complete.
		return c.FS.WhenComplete(spec.InputPath, startJob)
	}
	return c.Ingest(spec.InputPath, spec.InputBytes, startJob)
}
