(* The single on/off switch shared by spans and metrics. Instrumented hot
   paths read [enabled] directly (one load + branch), so a disabled sink
   costs nearly nothing and records no state. *)

let enabled = ref false

let enable () = enabled := true
let disable () = enabled := false
let is_enabled () = !enabled
