(* Adversity plans: first-class, composable descriptions of everything the
   explorer may do to a run beyond the base scenario — crashes, timed
   healing partitions, per-link delay spikes, message drops/duplication and
   leader flapping.  A plan folds into any [Stacks.setup] with [apply], so
   the same plan value drives exploration, shrinking and replay.

   Plans are *data*, not closures: they print to a stable one-line-per-spec
   format ([to_lines]/[of_lines]) that builder-spec files (and legacy repro
   files) embed verbatim.  [make] is the normalizing smart constructor: it dedupes
   [Omega_flap] (last wins, now enforced rather than documented) and
   stable-sorts specs into a canonical rank order that [apply] is
   insensitive to (kinds touching the same setup field share a rank, so
   stability preserves their relative order). *)

open Simulator
open Simulator.Types

type spec =
  | Crash of { proc : proc_id; at : time }
  | Partition of { left : proc_id list; from_time : time; until_time : time }
      (* [left] vs everyone else, healing at [until_time] *)
  | Lossy_partition of {
      left : proc_id list;
      from_time : time;
      until_time : time;
    }
      (* like [Partition], but cross-block sends are DROPPED, not buffered:
         recovering the lost traffic is the protocol's problem *)
  | Oneway_partition of {
      left : proc_id list;
      from_time : time;
      until_time : time;
    }
      (* asymmetric: sends from [left] to the rest are dropped, the reverse
         direction still flows *)
  | Flapping_partition of {
      left : proc_id list;
      from_time : time;
      until_time : time;
      period : int;
    }
      (* lossy, cut for [period] ticks / healed for [period], repeating *)
  | Delay_spike of {
      link : (proc_id * proc_id) option;  (* None = every link *)
      from_time : time;
      until_time : time;
      factor : int;
    }
  | Drop of { from_time : time; until_time : time; pct : int }
  | Duplicate of { from_time : time; until_time : time; copies : int }
  | Omega_flap of { until_time : time; period : int }
      (* Oracle rotates with [period] until [until_time], stable after *)
  | Crash_recover of { proc : proc_id; at : time; recover_at : time }
      (* a downtime window: volatile state lost at [at], process restarted
         at [recover_at] — only meaningful for recoverable stacks *)
  | Disk_fault of { proc : proc_id; kind : Persist.Store.fault }
      (* damage [proc]'s dirty log tail at its next crash; armed on the
         store pool by the runner ([apply] cannot see the stores) *)

type t = spec list

(* Canonical spec order for [make]: kinds that fold into the same setup
   field share a rank, so the stable sort never reorders two specs whose
   relative order matters (delay-model wrappers nest in plan order; fault
   windows compose in plan order).  Across ranks the folds touch
   independent setup fields and therefore commute, so sorting cannot
   change what [apply] builds. *)
let rank = function
  | Crash _ -> 0
  | Crash_recover _ -> 1
  | Disk_fault _ -> 2
  | Partition _ | Delay_spike _ -> 3
  | Lossy_partition _ | Oneway_partition _ | Flapping_partition _ | Drop _
  | Duplicate _ -> 4
  | Omega_flap _ -> 5

(* Smart constructor: of several [Omega_flap]s only the last is
   meaningful ([apply] overwrites the omega source), so [make] keeps only
   that one; then specs are stable-sorted by rank into the canonical
   order.  [apply (make plan)] and [apply plan] build the same setup. *)
let make plan =
  let last_flap =
    List.fold_left
      (fun acc spec ->
         match spec with Omega_flap _ -> Some spec | _ -> acc)
      None plan
  in
  let plan =
    match last_flap with
    | None -> plan
    | Some _ ->
      List.filter (function Omega_flap _ -> false | _ -> true) plan
      @ Option.to_list last_flap
  in
  List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) plan

let size = List.length

let has_flap = List.exists (function Omega_flap _ -> true | _ -> false)

let has_recovery =
  List.exists (function Crash_recover _ | Disk_fault _ -> true | _ -> false)

(* The plan can silently lose messages: lossy/one-way/flapping partitions
   drop cross-block sends on the floor (unlike the buffering [Partition]),
   so liveness needs either post-heal re-gossip or the anti-entropy
   layer. *)
let has_partition_loss =
  List.exists
    (function
      | Lossy_partition _ | Oneway_partition _ | Flapping_partition _ -> true
      | _ -> false)

let crash_procs plan =
  List.filter_map (function Crash { proc; _ } -> Some proc | _ -> None) plan

let recover_procs plan =
  List.filter_map
    (function Crash_recover { proc; _ } -> Some proc | _ -> None)
    plan

let disk_faults plan =
  List.filter_map
    (function Disk_fault { proc; kind } -> Some (proc, kind) | _ -> None)
    plan

(* The time from which the network and the detector behave nominally again
   — every window closed, every delayed message flushed.  Tau bounds are
   computed relative to this. *)
let settle_time ~base_max plan =
  List.fold_left
    (fun acc spec ->
       max acc
         (match spec with
          | Crash { at; _ } -> at
          | Partition { until_time; _ } -> until_time + base_max
          (* lossy windows buffer nothing, so the network is nominal the
             moment they close; catching up on what was LOST is protocol
             work, accounted for in the caller's slack, not here *)
          | Lossy_partition { until_time; _ }
          | Oneway_partition { until_time; _ }
          | Flapping_partition { until_time; _ } -> until_time
          | Delay_spike { until_time; factor; _ } ->
            until_time + (base_max * factor)
          | Drop { until_time; _ } -> until_time
          | Duplicate { until_time; _ } -> until_time + base_max
          | Omega_flap { until_time; _ } -> until_time
          | Crash_recover { recover_at; _ } -> recover_at + base_max
          | Disk_fault _ -> 0 (* bites at a crash; settles with its window *)))
    0 plan

let complement ~n left =
  List.filter (fun p -> not (List.mem p left)) (all_procs n)

(* Fold one adversity into a setup.  Order within the plan is irrelevant:
   crashes commute, delay wrappers compose, fault windows compose through
   [Net.compose_faults], and at most one flap is meaningful (the generator
   and the shrinker maintain that invariant; if violated, the last one
   wins).  [Omega_flap] only affects oracle setups — the heartbeat
   emulation's flapping is an emergent behaviour, not a config. *)
let apply_spec (s : Stacks.setup) spec : Stacks.setup =
  match spec with
  | Crash { proc; at } ->
    { s with pattern = Failures.crash_at s.pattern proc at }
  | Partition { left; from_time; until_time } ->
    let blocks = [ left; complement ~n:s.n left ] in
    { s with
      delay = Net.partitioned { Net.blocks; from_time; until_time } ~base:s.delay }
  | Lossy_partition { left; from_time; until_time } ->
    let blocks = [ left; complement ~n:s.n left ] in
    { s with
      faults =
        Net.compose_faults
          [ s.faults;
            Net.lossy_partition { Net.blocks; from_time; until_time } ] }
  | Oneway_partition { left; from_time; until_time } ->
    { s with
      faults =
        Net.compose_faults
          [ s.faults; Net.oneway_partition ~from_block:left ~from_time ~until_time ] }
  | Flapping_partition { left; from_time; until_time; period } ->
    let blocks = [ left; complement ~n:s.n left ] in
    { s with
      faults =
        Net.compose_faults
          [ s.faults;
            Net.flapping_partition ~blocks ~from_time ~until_time ~period ] }
  | Delay_spike { link; from_time; until_time; factor } ->
    let only = Option.map (fun l -> [ l ]) link in
    { s with delay = Net.slow_links ?only ~from_time ~until_time ~factor s.delay }
  | Drop { from_time; until_time; pct } ->
    { s with
      faults =
        Net.compose_faults
          [ s.faults; Net.drop_window ~from_time ~until_time pct ] }
  | Duplicate { from_time; until_time; copies } ->
    { s with
      faults =
        Net.compose_faults
          [ s.faults; Net.duplicate_window ~from_time ~until_time copies ] }
  | Omega_flap { until_time; period } ->
    (match s.omega with
     | Stacks.Oracle _ ->
       { s with
         omega =
           Stacks.Oracle
             { stabilize_at = until_time;
               pre = Detectors.Omega.Rotating period } }
     | Stacks.Elected _ -> s)
  | Crash_recover { proc; at; recover_at } ->
    { s with pattern = Failures.crash_recover_at s.pattern proc ~at ~recover_at }
  | Disk_fault _ -> s
    (* acts on the store pool, not the setup; see [disk_faults] *)

let apply plan setup = List.fold_left apply_spec setup plan

(* Arm the plan's disk faults on a store pool (in plan order, so several
   faults against one process queue up FIFO, one per crash). *)
let arm_disk_faults plan stores =
  List.iter
    (fun (proc, kind) ->
       if proc >= 0 && proc < Array.length stores then
         Persist.Store.arm_fault stores.(proc) kind)
    (disk_faults plan)

(* Strictly weaker variants of one adversity, strongest reduction first;
   the shrinker tries them in order.  Window halvings keep [from_time], so
   a weakened plan never moves an adversity later into the run (its settle
   time — and therefore its tau bound — only shrinks). *)
let weaken spec =
  let halve_until ~from_time ~until_time k =
    let len = until_time - from_time in
    if len <= 1 then [] else [ k (from_time + (len / 2)) ]
  in
  match spec with
  | Crash _ -> []
  | Partition { left; from_time; until_time } ->
    halve_until ~from_time ~until_time (fun until_time ->
        Partition { left; from_time; until_time })
  (* The lossy family weakens only by closing earlier (halve_until keeps
     [from_time]), so a weakened plan's settle time — and tau bound — never
     grows.  Shrinking a flap's period would lengthen individual down
     windows, which is not strictly weaker, so the period stays. *)
  | Lossy_partition { left; from_time; until_time } ->
    halve_until ~from_time ~until_time (fun until_time ->
        Lossy_partition { left; from_time; until_time })
  | Oneway_partition { left; from_time; until_time } ->
    halve_until ~from_time ~until_time (fun until_time ->
        Oneway_partition { left; from_time; until_time })
  | Flapping_partition { left; from_time; until_time; period } ->
    halve_until ~from_time ~until_time (fun until_time ->
        Flapping_partition { left; from_time; until_time; period })
  | Delay_spike { link; from_time; until_time; factor } ->
    (if factor > 2 then
       [ Delay_spike { link; from_time; until_time; factor = factor / 2 } ]
     else [])
    @ halve_until ~from_time ~until_time (fun until_time ->
        Delay_spike { link; from_time; until_time; factor })
  | Drop { from_time; until_time; pct } ->
    (if pct > 25 then [ Drop { from_time; until_time; pct = pct / 2 } ] else [])
    @ halve_until ~from_time ~until_time (fun until_time ->
        Drop { from_time; until_time; pct })
  | Duplicate { from_time; until_time; copies } ->
    (if copies > 1 then
       [ Duplicate { from_time; until_time; copies = copies / 2 } ]
     else [])
    @ halve_until ~from_time ~until_time (fun until_time ->
        Duplicate { from_time; until_time; copies })
  | Omega_flap { until_time; period } ->
    if until_time / 2 >= period then
      [ Omega_flap { until_time = until_time / 2; period } ]
    else []
  | Crash_recover { proc; at; recover_at } ->
    let len = recover_at - at in
    if len <= 1 then []
    else [ Crash_recover { proc; at; recover_at = at + (len / 2) } ]
  | Disk_fault { proc; kind } ->
    (match kind with
     | Persist.Store.Lost_suffix k when k > 1 ->
       [ Disk_fault { proc; kind = Persist.Store.Lost_suffix (k / 2) } ]
     | _ -> [])

(* ------------------------------------------------------------------ *)
(* Stable text form (embedded in spec files)                           *)
(* ------------------------------------------------------------------ *)

let pp_procs ppf procs =
  Fmt.pf ppf "%s" (String.concat "," (List.map string_of_int procs))

let pp_spec ppf = function
  | Crash { proc; at } -> Fmt.pf ppf "crash p=%d at=%d" proc at
  | Partition { left; from_time; until_time } ->
    Fmt.pf ppf "partition left=%a from=%d until=%d" pp_procs left from_time
      until_time
  | Lossy_partition { left; from_time; until_time } ->
    Fmt.pf ppf "lossy left=%a from=%d until=%d" pp_procs left from_time
      until_time
  | Oneway_partition { left; from_time; until_time } ->
    Fmt.pf ppf "oneway left=%a from=%d until=%d" pp_procs left from_time
      until_time
  | Flapping_partition { left; from_time; until_time; period } ->
    Fmt.pf ppf "flapping left=%a from=%d until=%d period=%d" pp_procs left
      from_time until_time period
  | Delay_spike { link; from_time; until_time; factor } ->
    let pp_link ppf = function
      | None -> Fmt.pf ppf "all"
      | Some (s, d) -> Fmt.pf ppf "%d>%d" s d
    in
    Fmt.pf ppf "spike link=%a from=%d until=%d factor=%d" pp_link link
      from_time until_time factor
  | Drop { from_time; until_time; pct } ->
    Fmt.pf ppf "drop from=%d until=%d pct=%d" from_time until_time pct
  | Duplicate { from_time; until_time; copies } ->
    Fmt.pf ppf "dup from=%d until=%d copies=%d" from_time until_time copies
  | Omega_flap { until_time; period } ->
    Fmt.pf ppf "flap until=%d period=%d" until_time period
  | Crash_recover { proc; at; recover_at } ->
    Fmt.pf ppf "crashrec p=%d at=%d until=%d" proc at recover_at
  | Disk_fault { proc; kind } ->
    Fmt.pf ppf "disk p=%d kind=%s" proc (Persist.Store.fault_to_string kind)

let pp ppf plan =
  if plan = [] then Fmt.pf ppf "(no adversities)"
  else Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_spec) plan

let to_line spec = Format.asprintf "%a" pp_spec spec
let to_lines plan = List.map to_line plan

exception Parse of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let spec_of_line_exn line =
  let tokens =
    List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))
  in
  match tokens with
  | [] -> parse_fail "empty adversity line"
  | kind :: fields ->
    let kv =
      List.filter_map
        (fun f ->
           match String.index_opt f '=' with
           | None -> None
           | Some i ->
             Some
               ( String.sub f 0 i,
                 String.sub f (i + 1) (String.length f - i - 1) ))
        fields
    in
    let str k =
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> parse_fail "missing field %s in %S" k line
    in
    let int k =
      match int_of_string_opt (str k) with
      | Some v -> v
      | None -> parse_fail "field %s is not an integer in %S" k line
    in
    let procs k =
      List.map
        (fun p ->
           match int_of_string_opt p with
           | Some p -> p
           | None ->
             parse_fail "field %s has a non-integer member %S in %S" k p line)
        (String.split_on_char ',' (str k))
    in
    (* Values [apply] would reject are parse errors here, so a spec file
       fails on its offending line instead of raising mid-run. *)
    let at_least lo k =
      let v = int k in
      if v < lo then parse_fail "field %s must be >= %d in %S" k lo line;
      v
    in
    let time k = at_least 0 k in
    let window () =
      let from_time = time "from" in
      let until_time = time "until" in
      if until_time < from_time then
        parse_fail "window ends before it starts in %S" line;
      (from_time, until_time)
    in
    (match kind with
     | "crash" -> Crash { proc = int "p"; at = time "at" }
     | "partition" ->
       let from_time, until_time = window () in
       Partition { left = procs "left"; from_time; until_time }
     | "lossy" ->
       let from_time, until_time = window () in
       Lossy_partition { left = procs "left"; from_time; until_time }
     | "oneway" ->
       let from_time, until_time = window () in
       Oneway_partition { left = procs "left"; from_time; until_time }
     | "flapping" ->
       let from_time, until_time = window () in
       Flapping_partition
         { left = procs "left"; from_time; until_time; period = at_least 1 "period" }
     | "spike" ->
       let link =
         match str "link" with
         | "all" -> None
         | l ->
           (match String.split_on_char '>' l with
            | [ s; d ] ->
              (match int_of_string_opt s, int_of_string_opt d with
               | Some s, Some d -> Some (s, d)
               | _ -> parse_fail "bad link %S" l)
            | _ -> parse_fail "bad link %S" l)
       in
       let from_time, until_time = window () in
       Delay_spike { link; from_time; until_time; factor = at_least 1 "factor" }
     | "drop" ->
       let from_time, until_time = window () in
       let pct = at_least 1 "pct" in
       if pct > 100 then parse_fail "field pct must be <= 100 in %S" line;
       Drop { from_time; until_time; pct }
     | "dup" ->
       let from_time, until_time = window () in
       Duplicate { from_time; until_time; copies = at_least 1 "copies" }
     | "flap" ->
       Omega_flap { until_time = time "until"; period = at_least 1 "period" }
     | "crashrec" ->
       let at = time "at" and recover_at = int "until" in
       if recover_at <= at then
         parse_fail "crashrec window is empty or inverted in %S" line;
       Crash_recover { proc = int "p"; at; recover_at }
     | "disk" ->
       (match Persist.Store.fault_of_string (str "kind") with
        | Some kind -> Disk_fault { proc = int "p"; kind }
        | None -> parse_fail "unknown disk fault kind %S in %S" (str "kind") line)
     | k -> parse_fail "unknown adversity kind %S" k)

let of_line line =
  match spec_of_line_exn line with
  | spec -> Ok spec
  | exception Parse msg -> Error msg

let of_lines lines =
  let rec go acc = function
    | [] -> Ok (make (List.rev acc))
    | line :: rest ->
      (match of_line line with
       | Ok spec -> go (spec :: acc) rest
       | Error msg -> Error msg)
  in
  go [] lines
