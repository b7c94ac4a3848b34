(** A complete chaos campaign: build, fault, watch, verify, report.

    [run] drives one car ({!Harness.create} picks the flat or the
    four-segment car from the plan) through one fault plan in 50 ms
    slices, checking the {!Invariant} suite at every slice boundary.  It
    then runs the never-faulted twin to the same horizon, which serves
    both the convergence check and the report's per-segment latency
    ratios.  Fully deterministic in [(seed, plan, placement)]: the
    report is the same byte for byte, because nothing in it reads the
    host's clock.  The car's policy engine is therefore not in the
    telemetry registry; [bench/main.exe perf] is where decision latency
    is measured.

    The report is one JSON object per run:
    - [plan], [seed], [horizon], [placement], [degrading], [verdict];
    - [faults]: per fault its kind, planned, injection and clearing
      times, MTTR and blast [region];
    - [watchdog] (period, deadline, trips, detections with MTTD),
      [failsafe] (stall, entry, latency against its bound), and the
      [mttd_ms] / [mttr_ms] histograms, which are also folded into the
      run's telemetry registry as [faults.mttd_ms] / [faults.mttr_ms];
    - [bound] ({!Invariant.bound}) and [blast_radius]: the faulted
      segments, per segment its traffic, end-of-run queue, p99 against
      the twin's and false blocks, per gateway its per-direction
      counters;
    - [violations] and the run's full [telemetry] snapshot. *)

type outcome = {
  harness : Harness.t;
  checker : Invariant.t;
  report : Secpol_policy.Json.t;
  passed : bool;
}

val run :
  ?placement:Secpol_vehicle.Topology_car.placement ->
  ?unbounded_gateway:bool ->
  seed:int64 ->
  plan:Plan.t ->
  unit ->
  outcome
(** [placement] and [unbounded_gateway] as {!Harness.create}.
    @raise Invalid_argument when {!Harness.create} refuses the plan. *)
