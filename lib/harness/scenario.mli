(** Scenario presets: each [run_*] below is a thin preset over
    {!Builder.run} — an opaque-base builder carrying the caller's
    {!Stacks.setup}, inputs and knobs — returning the trace (and the
    stack's handles where it has them).  Setups, detector sources and
    workloads are named in {!Stacks}; new tests should usually compose a
    {!Builder.t} directly. *)

open Simulator
open Simulator.Types
open Ec_core

val run_etob :
  ?inputs:(time * proc_id * Io.input) list ->
  ?mutation:Etob_omega.mutation ->
  Stacks.setup -> Stacks.etob_impl -> Trace.t
(** [mutation] seeds a bug into Algorithm 5; the other stacks ignore it. *)

val run_etob_ae :
  ?inputs:(time * proc_id * Io.input) list ->
  ?mutation:Etob_omega.mutation ->
  ?ae_config:Anti_entropy.config ->
  ?ae_mutation:Anti_entropy.mutation ->
  Stacks.setup ->
  Trace.t * (Etob_omega.t * Anti_entropy.t) array
(** Algorithm 5 plus the {!Ec_core.Anti_entropy} catch-up component: the
    partition-hardened crash-stop stack.  Returns the per-process protocol
    and anti-entropy handles so tests and benches can read
    {!Ec_core.Anti_entropy.stats} (e.g. E18's digest-vs-flood traffic
    comparison). *)

val run_recoverable :
  ?inputs:(time * proc_id * Io.input) list ->
  ?rconfig:Recoverable.config ->
  ?mutation:Recoverable.mutation ->
  ?etob_mutation:Etob_omega.mutation ->
  ?commits:bool ->
  ?ae:Anti_entropy.config ->
  ?ae_mutation:Anti_entropy.mutation ->
  ?stores:Persist.Store.t array ->
  Stacks.setup ->
  Trace.t * Recoverable.t array * Persist.Store.t array
(** Run the crash-recovery stack under the setup's failure pattern
    (including downtime windows).  Returns the trace, the latest
    incarnation handles, and the stores (fresh ones unless [stores] is
    given, e.g. with disk faults already armed). *)

val run_gossip_order :
  ?inputs:(time * proc_id * Io.input) list -> Stacks.setup -> Trace.t
(** The leaderless gossip-ordering baseline (no Omega): converges only when
    broadcasts stop — the E13 negative control. *)

val run_etob_with_commits :
  ?inputs:(time * proc_id * Io.input) list -> Stacks.setup -> Trace.t
(** Algorithm 5 plus the Section 7 committed-prefix indications. *)

val run_ec :
  ?inputs:(time * proc_id * Io.input) list ->
  Stacks.setup ->
  Builder.stack ->
  propose_value:(proc_id -> instance:int -> Value.t) ->
  max_instance:int ->
  Trace.t
(** One of the EC-family stacks: {!Builder.Ec} (bare Algorithm 4 with the
    self-driving proposer), {!Builder.Ec_lifted} (multivalued EC through
    the binary lift, inner layer "ec-inner"), {!Builder.Ec_via_etob}
    (Algorithm 2 over an ETOB stack), {!Builder.Eic} (Algorithm 6 over
    Algorithm 4, inner layer "ec-inner") or {!Builder.Ec_via_eic}
    (Algorithm 7 over 6 over 4). *)
