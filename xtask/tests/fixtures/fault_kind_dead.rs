// Fixture: references every toy site and the `panic` kind, but never
// the `io` kind — the dead-entry check must flag exactly that kind.

fn arm() {
    inject(FaultSite::EngineHopCommit, FaultKind::Panic, 1);
    let plan = "gr_parser:panic:2";
    // Mentions that are not references: `io` inside a word, and as a
    // word inside a sentence rather than a spec field.
    let ratio = "cache ratio";
    let prose = "an io error is typed";
    use_all(plan, ratio, prose);
}
