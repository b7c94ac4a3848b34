(** Secpol: policy-based security modelling and enforcement for embedded
    architectures.

    Reproduction of Hagan, Siddiqui & Sezer, IEEE SOCC 2018.  One umbrella
    namespace over the constituent libraries:

    - {!Obs}: zero-dependency telemetry (counters, histograms, traces).
    - {!Sim}: deterministic discrete-event simulation substrate.
    - {!Threat}: STRIDE/DREAD application threat modelling.
    - {!Policy}: the policy DSL, compiler, engine, derivation and updates.
    - {!Can}: the CAN bus simulator (ISO 11898 classic frames).
    - {!Hpe}: the hardware policy engine (paper Fig. 4).
    - {!Selinux}: the SELinux-style software policy engine.
    - {!Par}: shard-per-domain parallel serving of policy decisions on a
      persistent domain pool (one engine per worker, merged telemetry).
    - {!Serve}: the [secpold] decision daemon — wire protocol, persistent
      pool serving, RCU-style hot policy swap.
    - {!Vehicle}: the connected-car case study (paper §V).
    - {!Faults}: fault injection, fail-safe watchdogs and chaos campaigns.
    - {!Attack}: Table-I attack scenarios and campaigns.
    - {!Lifecycle}: product life-cycle and response-time models.
    - {!Pipeline}: the end-to-end modelling -> policy -> deployment flow. *)

module Obs = Secpol_obs
module Sim = Secpol_sim
module Threat = Secpol_threat
module Policy = Secpol_policy
module Can = Secpol_can
module Hpe = Secpol_hpe
module Par = Secpol_par
module Serve = Secpol_serve
module Selinux = Secpol_selinux
module Vehicle = Secpol_vehicle
module Faults = Secpol_faults
module Attack = Secpol_attack
module Lifecycle = Secpol_lifecycle
module Pipeline = Pipeline
