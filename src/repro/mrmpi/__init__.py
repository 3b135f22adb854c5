"""The paper's Section-IV simulation system, priced on the DES.

:mod:`repro.core` *executes* MapReduce on MPI-D and produces real
answers; this package is its **performance twin**: the same pipeline
(static split assignment by the rank-0 master, local reads, hash-table
buffering with combining, spill -> realign -> fixed-size-partition MPI
sends, wildcard receive + merge at the reducers) modelled as
discrete-event processes on the simulated cluster, with communication
priced by the MPICH2 transport model.  Figure 6 compares its job times
against the simulated Hadoop of :mod:`repro.hadoop`.
"""

from repro.mrmpi.config import MrMpiConfig
from repro.mrmpi.simulator import (
    MpiJobAborted,
    MrMpiFaultMetrics,
    MrMpiMetrics,
    MrMpiSimulation,
    replay_restarts,
    run_mpid_job,
    run_mpid_job_resubmitted,
    run_mpid_job_under_faults,
)

__all__ = [
    "MrMpiConfig",
    "MrMpiSimulation",
    "MrMpiMetrics",
    "MrMpiFaultMetrics",
    "MpiJobAborted",
    "replay_restarts",
    "run_mpid_job",
    "run_mpid_job_resubmitted",
    "run_mpid_job_under_faults",
]
