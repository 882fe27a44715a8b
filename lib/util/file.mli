(** Whole-file reading. *)

val read : string -> (string, string) result
(** The file's bytes.  Never raises: a file that cannot be opened or
    read (missing, unreadable, a directory) is an [Error] that names
    the path, and the channel is closed either way. *)
