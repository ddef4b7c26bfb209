(** The bytecode registry: resolves the program names a manifest mentions
    to their compiled artifacts — the moral equivalent of the directory
    of .o files the real libxbgp loads from disk. *)

val all : Xbgp.Xprog.t list
val find : string -> Xbgp.Xprog.t option

val manifests : (string * Xbgp.Manifest.t) list
(** Stock attachment manifests by program name — the menu the fuzzer and
    the CLI draw from. *)

val find_manifest : string -> Xbgp.Manifest.t option

val vmm_of_manifest :
  ?heap_size:int ->
  ?budget:int ->
  ?engine:Ebpf.Vm.engine ->
  ?telemetry:Telemetry.t ->
  host:string ->
  Xbgp.Manifest.t ->
  Xbgp.Vmm.t
(** Build a VMM for [host] and load the manifest into it.
    @raise Invalid_argument when the manifest does not apply cleanly. *)
