(* Shared QCheck arbitraries and shrinkers over simulator and explorer
   domain values: failure-pattern crash lists, adversity plans, whole
   declarative builders and base delay-model bounds.

   Plans generated here are deliberately NOT fairness-clamped (unlike
   [Explore.Explorer.random_plan], which keeps plans recoverable so that
   liveness checks are meaningful): safety properties must hold under any
   plan whatsoever, so these generators cover the whole space — drop
   windows that never heal, partitions to the horizon, flapping forever.
   They are [Adversity.make]-normalized, so generated plans equal their
   own text-form roundtrip.  Shrinkers are structural: drop whole
   elements, then substitute the strictly weaker variants of
   [Adversity.weaken]. *)

module Builder = Harness.Builder
module Adversity = Harness.Adversity
module Stacks = Harness.Stacks

(* ------------------------------------------------------------------ *)
(* Failure patterns, as crash lists                                    *)
(* ------------------------------------------------------------------ *)

(* Up to [max_faulty] crashes among processes 1..n-1 (process 0 always
   stays correct, so any environment admits the result), at arbitrary
   times within the horizon.  Duplicate processes are fine: [of_crashes]
   keeps the earliest time. *)
let crash_list_gen ~n ~max_faulty ~horizon =
  let open QCheck.Gen in
  list_size
    (int_range 0 (min max_faulty (n - 1)))
    (pair (int_range 1 (n - 1)) (int_range 0 horizon))

let crash_list_arb ~n ~max_faulty ~horizon =
  QCheck.make
    ~print:QCheck.Print.(list (pair int int))
    ~shrink:QCheck.Shrink.list
    (crash_list_gen ~n ~max_faulty ~horizon)

let pattern_of_crashes ~n crashes = Simulator.Failures.of_crashes ~n crashes

(* ------------------------------------------------------------------ *)
(* Adversity plans and whole builders                                  *)
(* ------------------------------------------------------------------ *)

let subset_gen n =
  let open QCheck.Gen in
  let* mask = int_range 1 ((1 lsl n) - 2) in
  return (List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id))

let window_gen deadline =
  let open QCheck.Gen in
  let* from_time = int_range 0 (deadline - 2) in
  let* len = int_range 1 (deadline - from_time) in
  return (from_time, from_time + len)

let spec_gen ~n ~deadline =
  let open QCheck.Gen in
  frequency
    [ ( 1,
        let* proc = int_range 1 (n - 1) in
        let* at = int_range 0 deadline in
        return (Adversity.Crash { proc; at }) );
      ( 2,
        let* left = subset_gen n in
        let* from_time, until_time = window_gen deadline in
        return (Adversity.Partition { left; from_time; until_time }) );
      ( 2,
        let* link =
          oneof
            [ return None;
              (let* src = int_range 0 (n - 1) in
               let* dst = int_range 0 (n - 1) in
               return (if src = dst then None else Some (src, dst))) ]
        in
        let* from_time, until_time = window_gen deadline in
        let* factor = int_range 2 6 in
        return (Adversity.Delay_spike { link; from_time; until_time; factor })
      );
      ( 2,
        let* from_time, until_time = window_gen deadline in
        let* pct = int_range 1 100 in
        return (Adversity.Drop { from_time; until_time; pct }) );
      ( 2,
        let* from_time, until_time = window_gen deadline in
        let* copies = int_range 1 3 in
        return (Adversity.Duplicate { from_time; until_time; copies }) );
      ( 2,
        let* until_time = int_range 1 deadline in
        let* period = int_range 1 6 in
        return (Adversity.Omega_flap { until_time; period }) ) ]

let plan_gen ~n ~deadline =
  QCheck.Gen.map Adversity.make
    QCheck.Gen.(list_size (int_range 0 5) (spec_gen ~n ~deadline))

let spec_shrink spec = QCheck.Iter.of_list (Adversity.weaken spec)

let plan_print plan = String.concat "; " (Adversity.to_lines plan)

let plan_arb ~n ~deadline =
  QCheck.make ~print:plan_print
    ~shrink:(QCheck.Shrink.list ~shrink:spec_shrink)
    (plan_gen ~n ~deadline)

(* Crash-recover windows and disk faults over processes 1..n-1.  Windows
   may overlap, touch, or sit anywhere in the horizon, and disk faults may
   target processes that never restart (then they are no-ops). *)
let recovery_spec_gen ~n ~deadline =
  let open QCheck.Gen in
  let* proc = int_range 1 (n - 1) in
  frequency
    [ ( 3,
        let* at = int_range 1 (deadline - 2) in
        let* len = int_range 1 (deadline - at) in
        return (Adversity.Crash_recover { proc; at; recover_at = at + len }) );
      ( 1,
        let* kind =
          oneofl
            [ Persist.Store.Torn_tail;
              Persist.Store.Lost_suffix 1;
              Persist.Store.Lost_suffix 3;
              Persist.Store.Corrupt_record ]
        in
        return (Adversity.Disk_fault { proc; kind }) ) ]

let recovery_plan_gen ~n ~deadline =
  let open QCheck.Gen in
  let* base = list_size (int_range 0 2) (spec_gen ~n ~deadline) in
  let* rec_specs = list_size (int_range 1 3) (recovery_spec_gen ~n ~deadline) in
  return (Adversity.make (base @ rec_specs))

let recovery_plan_arb ~n ~deadline =
  QCheck.make ~print:plan_print
    ~shrink:(QCheck.Shrink.list ~shrink:spec_shrink)
    (recovery_plan_gen ~n ~deadline)

(* Lossy, one-way and flapping partitions anywhere in the horizon —
   including schedules that never heal before the deadline or cut the
   leader off asymmetrically. *)
let partition_loss_spec_gen ~n ~deadline =
  let open QCheck.Gen in
  let* left = subset_gen n in
  frequency
    [ ( 2,
        let* from_time, until_time = window_gen deadline in
        return (Adversity.Lossy_partition { left; from_time; until_time }) );
      ( 1,
        let* from_time, until_time = window_gen deadline in
        return (Adversity.Oneway_partition { left; from_time; until_time }) );
      ( 1,
        let* from_time, until_time = window_gen deadline in
        let* period = int_range 1 6 in
        return
          (Adversity.Flapping_partition { left; from_time; until_time; period })
      ) ]

let partition_recovery_plan_gen ~n ~deadline =
  let open QCheck.Gen in
  let* base = list_size (int_range 0 2) (spec_gen ~n ~deadline) in
  let* losses =
    list_size (int_range 1 3) (partition_loss_spec_gen ~n ~deadline)
  in
  let* rec_specs = list_size (int_range 0 2) (recovery_spec_gen ~n ~deadline) in
  return (Adversity.make (base @ losses @ rec_specs))

let partition_recovery_plan_arb ~n ~deadline =
  QCheck.make ~print:plan_print
    ~shrink:(QCheck.Shrink.list ~shrink:spec_shrink)
    (partition_recovery_plan_gen ~n ~deadline)

(* Serializable declarative builders (ETOB-family stacks, data workloads,
   normalized plans, policy checkers); shrinks by shrinking the plan. *)
let builder_arb =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 3 5 in
    let* seed = int_range 0 999 in
    let* deadline = int_range 120 300 in
    let* delay =
      oneof
        [ (let* d = int_range 1 2 in
           return (Builder.Constant d));
          (let* min_d = int_range 1 2 in
           let* span = int_range 0 3 in
           return (Builder.Uniform { min_d; max_d = min_d + span })) ]
    in
    let* stack =
      oneofl
        [ Builder.Etob Stacks.Algorithm_5;
          Builder.Etob Stacks.Paxos_baseline;
          Builder.Etob Stacks.Algorithm_1_over_4;
          Builder.Etob_ae;
          Builder.Recoverable { ae = false };
          Builder.Recoverable { ae = true };
          Builder.Gossip ]
    in
    let* workload =
      oneof
        [ return Builder.No_posts;
          (let* count = int_range 1 20 in
           let* from_time = int_range 0 20 in
           let* every = int_range 1 8 in
           return (Builder.Posts { count; from_time; every }));
          (let* count = int_range 1 20 in
           let* stretch = bool in
           return (Builder.Auto_posts { count; stretch }));
          (let* count = int_range 1 12 in
           let* every = int_range 1 8 in
           let* jitter = int_range 0 3 in
           return
             (Builder.Weighted
                { count;
                  from_time = 8;
                  every;
                  jitter;
                  mix = [ ("a", 3); ("b", 1) ] })) ]
    in
    let* plan = plan_gen ~n ~deadline in
    let* checkers =
      oneofl
        [ [];
          [ Builder.Etob_spec Builder.Tau_auto ];
          [ Builder.Etob_spec Builder.Tau_auto; Builder.Watchdog Builder.Wd_auto ];
          [ Builder.Etob_spec (Builder.Tau_fixed 40) ] ]
    in
    let* boosts =
      oneofl [ []; [ Builder.Drop_boost_while_partitioned { factor = 2 } ] ]
    in
    let* mutation =
      oneofl (None :: List.map Option.some Ec_core.Etob_omega.all_mutations)
    in
    let* omega =
      oneofl
        [ None;
          Some
            (Stacks.Oracle
               { stabilize_at = 0; pre = Detectors.Omega.Self_trust });
          Some
            (Stacks.Oracle
               { stabilize_at = 40; pre = Detectors.Omega.Rotating 3 });
          Some (Stacks.Elected { initial_timeout = 6 }) ]
    in
    let* budget = oneofl [ None; Some 100 ] in
    let* service =
      oneof [ return None; map Option.some Harness.Service_spec.gen ]
    in
    return
      { (Builder.create ~seed ~delay ~n ~deadline stack) with
        Builder.workload;
        plan;
        checkers;
        boosts;
        mutation;
        omega;
        budget;
        service }
  in
  QCheck.make
    ~print:(fun b -> Builder.to_string b)
    ~shrink:(fun b ->
      QCheck.Iter.map
        (fun plan -> { b with Builder.plan })
        (QCheck.Shrink.list ~shrink:spec_shrink b.Builder.plan))
    gen

(* ------------------------------------------------------------------ *)
(* Base delay-model bounds (Net.uniform parameters)                    *)
(* ------------------------------------------------------------------ *)

let delay_bounds_gen =
  let open QCheck.Gen in
  let* min_delay = int_range 1 4 in
  let* span = int_range 0 4 in
  return (min_delay, min_delay + span)

let delay_bounds_arb =
  QCheck.make
    ~print:QCheck.Print.(pair int int)
    ~shrink:QCheck.Shrink.(pair nil nil)
    delay_bounds_gen

(* ------------------------------------------------------------------ *)
(* Binary trace records (Persist.Frame) and WAL payloads               *)
(* ------------------------------------------------------------------ *)

module Frame = Persist.Frame

(* Rendered values cover the whole byte range — JSON metacharacters,
   control characters, NUL, high bytes — so roundtrips exercise every
   encoder path, and times/uids reach multi-byte varint territory. *)
let frame_string_gen =
  let open QCheck.Gen in
  string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 24)

let frame_event_gen =
  let open QCheck.Gen in
  let t = int_range 0 1_000_000 in
  let proc = int_range 0 15 in
  let uid = int_range 0 10_000_000 in
  oneof
    [ (let* t = t in
       let* proc = proc in
       let* v = frame_string_gen in
       return (Frame.Input { t; proc; v }));
      (let* t = t in
       let* proc = proc in
       let* v = frame_string_gen in
       return (Frame.Output { t; proc; v }));
      (let* t = t in
       let* src = proc in
       let* dst = proc in
       let* uid = uid in
       return (Frame.Send { t; src; dst; uid }));
      (let* t = t in
       let* src = proc in
       let* dst = proc in
       let* uid = uid in
       let* lat = int_range 0 1_000 in
       return (Frame.Deliver { t; src; dst; uid; lat }));
      (let* t = t in
       let* src = proc in
       let* dst = proc in
       let* uid = uid in
       return (Frame.Drop { t; src; dst; uid }));
      (let* t = t in
       let* proc = proc in
       return (Frame.Crash { t; proc }));
      (let* t = t in
       let* proc = proc in
       return (Frame.Recover { t; proc })) ]

let frame_events_gen =
  QCheck.Gen.(list_size (int_range 0 40) frame_event_gen)

let frame_events_arb =
  QCheck.make
    ~print:(fun evs ->
        String.concat "\n" (List.map Frame.event_to_jsonl evs))
    ~shrink:QCheck.Shrink.list frame_events_gen

(* WAL payloads in the shape protocols actually log (short text records,
   see lib/core/recoverable.ml) but over arbitrary bytes.  Non-empty:
   protocols never append the empty record, and the documented Md5/Crc32
   behavioural corner is exactly the torn empty record (Store.mli). *)
let wal_payload_gen =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 1 60))

let wal_payloads_gen =
  QCheck.Gen.(list_size (int_range 1 24) wal_payload_gen)

let wal_payloads_arb =
  QCheck.make
    ~print:QCheck.Print.(list string)
    ~shrink:QCheck.Shrink.(list ~shrink:string)
    wal_payloads_gen

(* ------------------------------------------------------------------ *)
(* Service-layer client populations                                    *)
(* ------------------------------------------------------------------ *)

(* These generators live with the spec in [Harness.Service_spec] so the
   smoke gate (`ecsim service --smoke`) can sample them without the test
   tree; re-exported here so test arbitraries and the builder roundtrip
   property draw from the same space. *)
let service_arrival_gen = Harness.Service_spec.arrival_gen
let service_spec_gen = Harness.Service_spec.gen
let service_spec_arb = Harness.Service_spec.arbitrary
