﻿package p;

// starts with a UTF-8 byte-order mark
public class A {
    int count;

    void add() { count = count + 1; }
}
