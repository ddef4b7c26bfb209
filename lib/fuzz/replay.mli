(** Seed-pinned reproducer files: every failing case is saved as a small
    text file from which the exact minimized case can be regenerated and
    re-run deterministically. *)

type t = {
  seed : int;
  case_index : int;
  kind : string;
      (** [Config_gen.kinds] of the unrestricted case, ['+']-joined;
          checked at replay *)
  perturb : bool;
  kept : (string * int list) list;
      (** kept indices per {!Config_gen.lists} name; an absent name keeps
          that list whole *)
  classes : string list;  (** {!Oracle.cls_name}s of the original case *)
  note : string;  (** first finding, for humans *)
}

val to_string : t -> string
val of_string : string -> (t, string) result

val case_of : t -> (Config_gen.case, string) result
(** Regenerate the (restricted) case this reproducer pins; fails if the
    generator no longer produces the recorded kind for that seed and
    index. *)

val save : dir:string -> t -> (string, string) result
(** Write [repro-s<seed>-c<index>.txt] under [dir], creating it and any
    missing parents; returns the path, or the system error when the file
    cannot be written. *)

val load : string -> (t, string) result
