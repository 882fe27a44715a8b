(** Whole-file reading and writing. *)

val read : string -> (string, string) result
(** The file's bytes.  Never raises: a file that cannot be opened or
    read (missing, unreadable, a directory) is an [Error] that names
    the path, and the channel is closed either way. *)

val write : string -> string -> (unit, string) result
(** [write path content] writes [content] to [path.tmp] and renames it
    over [path], so a crash leaves either the old file or the whole new
    one.  Never raises: a failed write or rename is an [Error] that
    names the path. *)
