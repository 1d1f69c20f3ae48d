package p;

// a non-ASCII identifier takes the lexer's exact path
class B extends A {
    int größe;

    void wachsen() { größe = größe + 1; add(); }

    int messen() { return größe; }
}
