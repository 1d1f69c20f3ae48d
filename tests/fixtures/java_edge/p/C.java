package p;

class C {
    B b;

    void use() { b.wachsen(); }
} // the file ends in this comment, with no line feed