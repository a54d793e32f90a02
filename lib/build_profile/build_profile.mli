val name : string
(** The dune profile this binary was built in (["release"] from the
    root [dune-workspace]; ["dev"] with [--profile dev] or without the
    workspace file). *)
