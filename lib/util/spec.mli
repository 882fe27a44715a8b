(** The one [key=value] spec codec behind every tunable: budgets,
    breakers, confirmation, backoff, both fault plans and the
    configuration assignments of [--set], config files and hot reload
    read and print here, so a printed spec reads back to its value.

    - A spec splits into tokens at every [','] and each token at its
      first ['='] into [key=value].  An {!assignment} is one token whose
      value runs to the end, so [budget=bytes=1,insns=2] nests.
    - Tokens, keys and values are trimmed; an empty token ([a=1,,b=2],
      a trailing [',']) is an error.
    - An empty spec is the empty {!plan} and an error for a {!record}.
    - A record also reads the whole spec [default] as its default and,
      where it has one, [unlimited].
    - Integers print in decimal, floats with {!float_to_string}.
    - Errors start with the codec's name: ["NAME: KEY wants WHAT, got
      \"V\""], ["NAME: unknown key \"K\" (want a|b)"], ["NAME: \"T\" is
      not key=value"], ["NAME: empty spec"], ["NAME: empty token in
      \"S\""]; a plan says [kind] where a record says [key]. *)

type 'a t = { parse : string -> ('a, string) result; print : 'a -> string }
(** [parse (print v) = Ok v] for every [v] that [parse] returns. *)

type 'a value
(** How one value reads and prints. *)

val value : what:string -> (string -> 'a option) -> ('a -> string) -> 'a value
(** [None] reads as ["NAME: KEY wants WHAT, got \"V\""]. *)

val codec : 'a t -> 'a value
(** A nested spec; its errors pass through unchanged. *)

val int : int value
val pos_int : int value

val float_to_string : float -> string
(** The one float printer, shared with the metric exporters: [%.15g],
    or [%.17g] when that does not read back to the same bits; [inf],
    [-inf] and [nan] (any [nan]). *)

val float : float value
(** Any number but [nan]; {!seconds} is [>= 0], {!prob} in [\[0,1\]]. *)

val seconds : float value
val prob : float value

val bool : bool value
(** [true]/[on]/[yes]/[1] or [false]/[off]/[no]/[0], any case. *)

type 'r field

val field : string -> 'a value -> ('r -> 'a) -> ('a -> 'r -> 'r) -> 'r field
(** [field key value get set]. *)

val setter : string -> 'a value -> ('a -> 'r -> 'r) -> 'r field
(** A key that reads but does not print. *)

val keys : 'r field list -> string list

val record :
  string -> ?unlimited:'r -> ?check:('r -> ('r, string) result) -> 'r ->
  'r field list -> 'r t
(** [record name default fields]: [key=value] tokens over [default],
    then [check]; prints every field in table order. *)

val plan : string -> (string * 'k) list -> 'a value -> ('k * 'a) list t
(** [plan name kinds value]: [kind=value] tokens in order, repeats kept. *)

val assignment : string -> 'r field list -> string -> ('r -> 'r, string) result
(** One [key=value] read into an updater. *)

val lines : (string -> ('a, string) result) -> string list -> ('a list, string) result
(** One spec per line: text from ['#'] on is a comment, blank lines are
    skipped, errors are prefixed ["line N: "]. *)
