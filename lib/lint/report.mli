(* Rendering of a scan result. *)

(* Stable, sorted, trailing-newline JSON — safe to golden. *)
val to_json : Driver.result_t -> string

(* Building blocks shared with alloclint's report: one finding as a
   JSON object line ([extra] is appended inside the braces, its strings
   escaped with [Persist.Frame.json_escape]), and a named JSON array block
   at report indent. *)
val finding_json : extra:string -> Finding.t -> string
val block : string -> string list -> string

(* file:line:col diagnostics plus a one-line summary. *)
val pp_human : Format.formatter -> Driver.result_t -> unit
