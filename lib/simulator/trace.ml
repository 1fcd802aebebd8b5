(* Run traces.

   A trace is the observable part of a run R = (F, H, H_I, H_O, S, T): the
   input history, the output history and bookkeeping counters.  All property
   checkers in [Ec_core.Properties] and all benchmark metrics are functions
   of a trace, so that correctness is judged only on externally visible
   behaviour, exactly as the paper's problem definitions do. *)

open Types

type entry =
  | In of { t : time; proc : proc_id; input : Io.input }
  | Out of { t : time; proc : proc_id; output : Io.output }

type t = {
  n : int;
  mutable rev_entries : entry list;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable steps : int;
  mutable last_time : time;
}

let create ~n =
  { n; rev_entries = []; sent = 0; delivered = 0; dropped = 0; steps = 0; last_time = 0 }

let touch_time t time = if time > t.last_time then t.last_time <- time

let record_input t ~time ~proc input =
  touch_time t time;
  t.rev_entries <- In { t = time; proc; input } :: t.rev_entries

let record_output t ~time ~proc output =
  touch_time t time;
  t.rev_entries <- Out { t = time; proc; output } :: t.rev_entries

let count_sent t = t.sent <- t.sent + 1
let count_delivered t = t.delivered <- t.delivered + 1
let count_dropped t = t.dropped <- t.dropped + 1
let count_step t = t.steps <- t.steps + 1

let n t = t.n
let entries t = List.rev t.rev_entries
let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let steps t = t.steps
let last_time t = t.last_time

let outputs t =
  List.filter_map
    (function Out { t; proc; output } -> Some (t, proc, output) | In _ -> None)
    (entries t)

let inputs t =
  List.filter_map
    (function In { t; proc; input } -> Some (t, proc, input) | Out _ -> None)
    (entries t)

let outputs_of t p =
  List.filter_map (fun (time, proc, o) -> if proc = p then Some (time, o) else None)
    (outputs t)

let inputs_of t p =
  List.filter_map (fun (time, proc, i) -> if proc = p then Some (time, i) else None)
    (inputs t)

let pp_entry ppf = function
  | In { t; proc; input } ->
    Fmt.pf ppf "[%4d] %a <- %a" t pp_proc proc Io.pp_input input
  | Out { t; proc; output } ->
    Fmt.pf ppf "[%4d] %a -> %a" t pp_proc proc Io.pp_output output

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,(sent=%d delivered=%d dropped=%d steps=%d end=%d)@]"
    (Fmt.list pp_entry) (entries t) t.sent t.delivered t.dropped t.steps t.last_time

(* The run fingerprint findings and replays compare: MD5 of the printed
   trace, in hex. *)
let digest t = Digest.to_hex (Digest.string (Format.asprintf "%a" pp t))
