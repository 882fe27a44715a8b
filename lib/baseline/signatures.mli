(** The static signature set for the Snort-style baseline: byte patterns
    taken from the {e unobfuscated} exploit corpus, exactly the way 2006
    rule sets were written.  The evaluation shows these catch the plain
    exploits and the fixed Code Red vector but miss polymorphic
    instances — the paper's motivation. *)

val scan : string -> string option
(** First matching signature name in a payload. *)
