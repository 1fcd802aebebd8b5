(** Run traces: the observable input/output histories of a simulated run.

    All property checkers and benchmark metrics are functions of a trace, so
    correctness is judged only on externally visible behaviour, as in the
    paper's problem definitions. *)

open Types

type entry =
  | In of { t : time; proc : proc_id; input : Io.input }
  | Out of { t : time; proc : proc_id; output : Io.output }

type t

val create : n:int -> t

val record_input : t -> time:time -> proc:proc_id -> Io.input -> unit
val record_output : t -> time:time -> proc:proc_id -> Io.output -> unit

val count_sent : t -> unit
val count_delivered : t -> unit
val count_dropped : t -> unit
val count_step : t -> unit

val n : t -> int
val entries : t -> entry list
(** All entries in chronological order. *)

val outputs : t -> (time * proc_id * Io.output) list
val inputs : t -> (time * proc_id * Io.input) list
val outputs_of : t -> proc_id -> (time * Io.output) list
val inputs_of : t -> proc_id -> (time * Io.input) list

val sent : t -> int
(** Total messages sent. *)

val delivered : t -> int
val dropped : t -> int
(** Messages addressed to already-crashed processes. *)

val steps : t -> int
(** Total automaton steps executed. *)

val last_time : t -> time

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

val digest : t -> string
(** Hex MD5 of {!pp}'s text: the trace digest that spec files record and
    replays must reproduce byte for byte. *)
